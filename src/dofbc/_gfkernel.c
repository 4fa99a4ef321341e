/* Exact linear algebra over GF(p): the compiled twins of the numpy kernels in
 * gf.py.  `gf_pivots` finds pivot columns (gf._eliminate), `gf_ranks` ranks
 * each member of a stack with it, `gf_solve` solves stacked square systems
 * (gf._solve) and `gf_matmul` multiplies stacked matrices (gf._matmul).
 * Every matrix is C-ordered int64, and p is a prime with 2 <= p < 2^31.
 * `gf_pivots`, `gf_ranks` and `gf_matmul` take entries in [0, p);
 * `gf_solve` takes them anywhere in (-p, p), so an AP-ZF right-hand side may
 * arrive negated.  gf.py's entries (`_pivots`, `_ranks`, `_product` and
 * `_solve_in_place`) check that every array is C-ordered int64, and writable
 * where it is written; their callers keep the entries in range and p prime.
 * At the end, `channel_draws` makes channel.py's seeded channel draws.
 *
 * gf_pivots: `a` is a rows x cols matrix, eliminated in place.  `pivots` must
 * hold min(rows, cols) entries.  Returns the number of pivot columns written.
 *
 * For each column, the first row at or below the pivot row with a nonzero
 * entry becomes the pivot row (swapped up if it is lower), and every row
 * below it is updated fraction-free: row = row * pivot - row[c] * pivot_row.
 * Entries are kept in (-p, p), not [0, p): each product is below 2^62 in
 * magnitude and their difference fits in int64.  An entry is zero exactly
 * when it is zero mod p, so the pivots are those of gf._eliminate.  Left of
 * the pivot column, the pivot row and the rows below it are zero, and a row
 * whose entry in the pivot column is zero would only be scaled by the pivot,
 * so both are skipped.
 */
#include <stdint.h>
#include <stdlib.h>

/* A representative of x mod p in (-p, p), for |x| < 2p^2.  The quotient is
 * rounded in double precision: |x / p| < 2^32, so it is within one of the
 * truncated quotient, the remainder lies in (-2p, 2p), and one step brings it
 * into (-p, p).  This is much faster than an integer division. */
static inline int64_t reduce(int64_t x, int64_t p, double inverse)
{
    int64_t m = x - (int64_t)((double)x * inverse) * p;
    if (m >= p)
        return m - p;
    if (m <= -p)
        return m + p;
    return m;
}

/* The inverse mod p of x in (-p, p), x nonzero, as a representative in
 * (-p, p): the extended Euclidean algorithm keeps u x = a and v x = b mod p
 * while (a, b) runs down to (gcd, 0) = (1, 0). */
static int64_t invert(int64_t x, int64_t p)
{
    int64_t a = x < 0 ? x + p : x, b = p, u = 1, v = 0;
    while (b) {
        int64_t q = a / b, t = a - q * b;
        a = b;
        b = t;
        t = u - q * v;
        u = v;
        v = t;
    }
    return u;
}

int64_t gf_pivots(int64_t *a, int64_t rows, int64_t cols, int64_t p, int64_t *pivots)
{
    double inverse = 1.0 / (double)p;
    int64_t r = 0;
    for (int64_t c = 0; c < cols && r < rows; c++) {
        int64_t i = r;
        while (i < rows && a[i * cols + c] == 0)
            i++;
        if (i == rows)
            continue;
        int64_t *top = a + r * cols;
        if (i != r) {
            int64_t *row = a + i * cols;
            for (int64_t j = c; j < cols; j++) {
                int64_t t = top[j];
                top[j] = row[j];
                row[j] = t;
            }
        }
        int64_t pivot = top[c];
        for (int64_t k = r + 1; k < rows; k++) {
            int64_t *row = a + k * cols;
            int64_t factor = row[c];
            if (factor == 0)
                continue;
            row[c] = 0;
            for (int64_t j = c + 1; j < cols; j++)
                row[j] = reduce(row[j] * pivot - factor * top[j], p, inverse);
        }
        pivots[r++] = c;
    }
    return r;
}

/* gf_ranks: `stack` holds `count` rows x cols matrices, each eliminated in
 * place by gf_pivots, so each member is ranked exactly as it would be alone.
 * `out` must hold 2 count entries: out[s] is member s's rank and
 * out[count + s] its count of pivot columns left of `split`,
 * 0 <= split <= cols, which is the rank of its first `split` columns, since
 * gf_pivots eliminates left to right.  Returns 0, or -1 if the pivot buffer
 * of min(rows, cols) entries cannot be allocated. */
int64_t gf_ranks(int64_t *stack, int64_t count, int64_t rows, int64_t cols, int64_t split, int64_t p,
                 int64_t *out)
{
    int64_t *pivots = malloc(sizeof *pivots * (size_t)((rows < cols ? rows : cols) + 1));
    if (pivots == NULL)
        return -1;
    for (int64_t s = 0; s < count; s++) {
        int64_t rank = gf_pivots(stack + s * rows * cols, rows, cols, p, pivots), left = 0;
        while (left < rank && pivots[left] < split)
            left++;
        out[s] = rank;
        out[count + s] = left;
    }
    free(pivots);
    return 0;
}

/* gf_solve: `aug` holds `count` augmented systems [A | B], each n x width with
 * A square (width >= n), solved in place by Gauss-Jordan.  Returns the index
 * of the first singular member, whose system and those after it are left
 * partly eliminated, or -1; then each member's last width - n columns hold
 * its solution X of A X = B, in [0, p).
 *
 * For each column c, the first row at or below c with a nonzero entry is
 * swapped up, scaled by the inverse of its pivot, and subtracted from every
 * other row with a nonzero entry in column c.  Entries start in (-p, p) and
 * stay there: `invert` takes a pivot of either sign, a scaled entry is a
 * product below p^2, and an updated one x - f y has |x| < p and
 * |f y| < p^2, so both are below 2p^2 < 2^63 and `reduce` applies.  An
 * entry is zero exactly when it is zero mod p, so the singular members are
 * those of gf._solve.  Left of column c the pivot row is zero, so updates start at
 * c + 1.  The solution of a nonsingular system is unique, so it is
 * gf._solve's. */
int64_t gf_solve(int64_t *aug, int64_t count, int64_t n, int64_t width, int64_t p)
{
    double inverse = 1.0 / (double)p;
    for (int64_t s = 0; s < count; s++) {
        int64_t *m = aug + s * n * width;
        for (int64_t c = 0; c < n; c++) {
            int64_t i = c;
            while (i < n && m[i * width + c] == 0)
                i++;
            if (i == n)
                return s;
            int64_t *top = m + c * width;
            if (i != c) {
                int64_t *row = m + i * width;
                for (int64_t j = c; j < width; j++) {
                    int64_t t = top[j];
                    top[j] = row[j];
                    row[j] = t;
                }
            }
            int64_t scale = invert(top[c], p);
            top[c] = 1;
            for (int64_t j = c + 1; j < width; j++)
                top[j] = reduce(top[j] * scale, p, inverse);
            for (int64_t k = 0; k < n; k++) {
                int64_t *row = m + k * width;
                int64_t factor = row[c];
                if (k == c || factor == 0)
                    continue;
                row[c] = 0;
                for (int64_t j = c + 1; j < width; j++)
                    row[j] = reduce(row[j] - factor * top[j], p, inverse);
            }
        }
        for (int64_t k = 0; k < n; k++)
            for (int64_t j = n; j < width; j++)
                if (m[k * width + j] < 0)
                    m[k * width + j] += p;
    }
    return -1;
}

/* gf_matmul: out = a @ b mod p for `count` stacked pairs, a count x r x n,
 * b count x n x m and out count x r x m, none overlapping.  Each row of out
 * accumulates the products a[i, t] b[t, :] unreduced, as uint64: a product
 * is below 2^62, so a sum below 2^63 stays below 2^63 + 2^62 < 2^64 after
 * one more, and once it reaches 2^63 (its top bit) it drops by `fold`, the
 * largest multiple of p not above 2^63 (so above 2^63 - p), to below
 * 2^62 + p.  The sum never wraps, keeps its residue, and one `%` per entry
 * reduces it into [0, p).  Zero entries of a add nothing and are skipped. */
void gf_matmul(const int64_t *restrict a, const int64_t *restrict b, int64_t *restrict out,
               int64_t count, int64_t r, int64_t n, int64_t m, int64_t p)
{
    const uint64_t fold = (UINT64_C(1) << 63) / (uint64_t)p * (uint64_t)p;
    for (int64_t s = 0; s < count; s++) {
        const int64_t *as = a + s * r * n, *bs = b + s * n * m;
        for (int64_t i = 0; i < r; i++) {
            uint64_t *restrict acc = (uint64_t *)(out + (s * r + i) * m);
            for (int64_t j = 0; j < m; j++)
                acc[j] = 0;
            for (int64_t t = 0; t < n; t++) {
                uint64_t x = (uint64_t)as[i * n + t];
                if (x == 0)
                    continue;
                const int64_t *restrict row = bs + t * m;
                for (int64_t j = 0; j < m; j++) {
                    uint64_t sum = acc[j] + x * (uint64_t)row[j];
                    acc[j] = sum - (fold & (0 - (sum >> 63)));
                }
            }
            for (int64_t j = 0; j < m; j++)
                acc[j] %= (uint64_t)p;
        }
    }
}

/* channel_draws: numpy's channel draws, replayed bit for bit for channel.py.
 * Draw j of `count` comes from the generator of
 * default_rng(SeedSequence((seed, index_j))) and fills `cells` consecutive
 * entries of `out`.  `seed` holds the seed's `words` 32-bit words and
 * `indices` the `count` indices (each below 2^32, so one word), all
 * little-endian.  With p > 0, `out` is int64 and each draw is
 * integers(1, p, size=cells, dtype=int64); with p == 0, `out` is double and
 * each draw is uniform(lo, hi, size=cells) with every cell's sign then taken
 * from integers(0, 2, size=cells, dtype=int64), 0 meaning negative.
 *
 * SeedSequence hashes its entropy words (the seed's, then the index's) into a
 * pool of four: each pool word is the hash of its entropy word (0 past the
 * last), every word is mixed into the three others, and the words past the
 * fourth are mixed into all four.  One running constant, INIT_A times MULT_A
 * per hash, keys every hash of the pool.  generate_state(4, uint64) then
 * hashes the pool, cycled twice, into eight words keyed from INIT_B, read as
 * four uint64 (low word first): PCG64's initial state (high, low) and
 * sequence (high, low).  PCG64 sets inc = 2 sequence + 1 and state =
 * (inc + initial state) MULT + inc, all mod 2^128, and each output steps
 * state = state MULT + inc and returns the XSL-RR of the new state.  numpy
 * takes a 32-bit output from the low half of a 64-bit one and keeps the high
 * half for the next; a double is (next64 >> 11) 2^-53, and a bounded integer
 * in [0, range] is Lemire's multiply-and-reject on 32-bit outputs. */
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_L 0xca01f9ddu
#define MIX_R 0x4973f715u

typedef struct {
    uint64_t high, low;
} u128;

typedef struct {
    u128 state, inc;
    int has32;
    uint32_t next32;
} pcg64;

static const u128 PCG64_MULT = {0x2360ed051fc65da4u, 0x4385df649fccf645u};

static uint32_t word(const unsigned char *b)
{
    return (uint32_t)b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16 | (uint32_t)b[3] << 24;
}

static uint32_t hash(uint32_t value, uint32_t *key, uint32_t mult)
{
    value ^= *key;
    *key *= mult;
    value *= *key;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = MIX_L * x - MIX_R * y;
    return r ^ (r >> 16);
}

/* The high 64 bits of a b. */
static inline uint64_t mulhi(uint64_t a, uint64_t b)
{
#ifdef __SIZEOF_INT128__
    return (uint64_t)(((unsigned __int128)a * b) >> 64);
#else
    uint64_t a0 = (uint32_t)a, a1 = a >> 32, b0 = (uint32_t)b, b1 = b >> 32;
    uint64_t middle = (a0 * b0 >> 32) + (uint32_t)(a1 * b0) + a0 * b1;
    return a1 * b1 + (a1 * b0 >> 32) + (middle >> 32);
#endif
}

static inline u128 add(u128 a, u128 b)
{
    u128 r = {a.high + b.high, a.low + b.low};
    r.high += r.low < b.low;
    return r;
}

/* a PCG64_MULT + c mod 2^128. */
static inline u128 step(u128 a, u128 c)
{
    u128 r = {mulhi(a.low, PCG64_MULT.low) + a.low * PCG64_MULT.high + a.high * PCG64_MULT.low,
              a.low * PCG64_MULT.low};
    return add(r, c);
}

/* Entropy word i < words + 1 of SeedSequence((seed, index)). */
static uint32_t entropy(const unsigned char *seed, int64_t words, uint32_t index, int64_t i)
{
    return i < words ? word(seed + 4 * i) : index;
}

static void seed_pcg64(pcg64 *g, const unsigned char *seed, int64_t words, uint32_t index)
{
    int64_t n = words + 1;
    uint32_t pool[4], key = INIT_A, out[8];
    for (int64_t i = 0; i < 4; i++)
        pool[i] = hash(i < n ? entropy(seed, words, index, i) : 0, &key, MULT_A);
    for (int s = 0; s < 4; s++)
        for (int d = 0; d < 4; d++)
            if (d != s)
                pool[d] = mix(pool[d], hash(pool[s], &key, MULT_A));
    for (int64_t s = 4; s < n; s++)
        for (int d = 0; d < 4; d++)
            pool[d] = mix(pool[d], hash(entropy(seed, words, index, s), &key, MULT_A));
    key = INIT_B;
    for (int i = 0; i < 8; i++)
        out[i] = hash(pool[i % 4], &key, MULT_B);
    uint64_t state[4];
    for (int i = 0; i < 4; i++)
        state[i] = out[2 * i] | (uint64_t)out[2 * i + 1] << 32;
    u128 initial = {state[0], state[1]};
    g->inc = (u128){state[2] << 1 | state[3] >> 63, state[3] << 1 | 1};
    g->state = step(add(g->inc, initial), g->inc);
    g->has32 = 0;
}

static inline uint64_t next64(pcg64 *g)
{
    g->state = step(g->state, g->inc);
    uint64_t x = g->state.high ^ g->state.low;
    unsigned rot = (unsigned)(g->state.high >> 58);
    return (x >> rot) | (x << ((0u - rot) & 63));
}

static inline uint32_t next32(pcg64 *g)
{
    if (g->has32) {
        g->has32 = 0;
        return g->next32;
    }
    uint64_t x = next64(g);
    g->has32 = 1;
    g->next32 = (uint32_t)(x >> 32);
    return (uint32_t)x;
}

/* A uniform integer in [0, range], range < 2^32 - 1, as numpy draws it for
 * an int64 array. */
static inline uint64_t bounded(pcg64 *g, uint32_t range)
{
    uint32_t excl = range + 1;
    uint64_t m = (uint64_t)next32(g) * excl;
    if ((uint32_t)m < excl) {
        uint32_t threshold = (UINT32_MAX - range) % excl;
        while ((uint32_t)m < threshold)
            m = (uint64_t)next32(g) * excl;
    }
    return m >> 32;
}

void channel_draws(const unsigned char *seed, int64_t words, const unsigned char *indices,
                   int64_t count, int64_t cells, int64_t p, double lo, double hi, void *out)
{
    double range = hi - lo;
    pcg64 g;
    for (int64_t j = 0; j < count; j++) {
        seed_pcg64(&g, seed, words, word(indices + 4 * j));
        if (p > 0) {
            int64_t *draw = (int64_t *)out + j * cells;
            for (int64_t c = 0; c < cells; c++)
                draw[c] = 1 + (int64_t)bounded(&g, (uint32_t)(p - 2));
        } else {
            double *draw = (double *)out + j * cells;
            for (int64_t c = 0; c < cells; c++)
                draw[c] = lo + range * ((double)(next64(&g) >> 11) * (1.0 / 9007199254740992.0));
            for (int64_t c = 0; c < cells; c++)
                if (!bounded(&g, 1))
                    draw[c] = -draw[c];
        }
    }
}
