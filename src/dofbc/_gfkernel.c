/* Exact linear algebra over GF(P), P = 2^31 - 1 (gf.DEFAULT_PRIME): the
 * compiled twins of the numpy kernels in gf.py.  Five static routines work
 * on one matrix each: `pivots` finds pivot columns (gf._eliminate),
 * `rank_split` ranks a matrix and its leading columns with it, `solve` solves
 * a square system (gf._solve), `matmul` multiplies a pair (gf._matmul) and
 * `realize` fills one channel's observation matrices from a plan's realize
 * program (the slot loop of verifier.realize_plan).  The exports
 * `gf_pivots`, `gf_ranks`, `gf_solve`, `gf_matmul` and `gf_realize` are thin
 * loops over them, and `gf_certify` runs them all on a block of channels
 * under one plan: AP-ZF solves, gains, realize and both receivers' ranks
 * (verifier.achieved_dof's block).  Every matrix is C-ordered int64.
 * `gf_pivots`, `gf_ranks`, `gf_matmul`, `gf_realize` and `gf_certify` take
 * entries in [0, P); `gf_solve` takes them anywhere in (-P, P), so an AP-ZF
 * right-hand side may arrive negated.  gf.py's entries (`_pivots`, `_ranks`,
 * `_product`, `_solve_in_place`, `_realize` and `_certify`) check that every
 * array is C-ordered int64, and writable where it is written; their callers
 * keep the entries in range.  At the end, `channel_draws` makes channel.py's
 * seeded channel draws.
 *
 * pivots: `a` is a rows x cols matrix, eliminated in place.  `found` must
 * hold min(rows, cols) entries.  Returns the number of pivot columns written.
 *
 * For each column, the first row at or below the pivot row with a nonzero
 * entry becomes the pivot row (swapped up if it is lower), and every row
 * below it is updated fraction-free: row = row * pivot - row[c] * pivot_row.
 * Entries are kept in (-P, P), not [0, P): each product is below 2^62 in
 * magnitude and their difference fits in int64.  An entry is zero exactly
 * when it is zero mod P, so the pivots are those of gf._eliminate.  Left of
 * the pivot column, the pivot row and the rows below it are zero, and a row
 * whose entry in the pivot column is zero would only be scaled by the pivot,
 * so both are skipped.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define P INT64_C(2147483647) /* 2^31 - 1, gf.DEFAULT_PRIME */

/* A representative of x mod P in (-P, P), for any |x| < 2^63, by Mersenne
 * folding: 2^31 = 1 mod P, so x = (x >> 31) 2^31 + (x & P) = (x >> 31) +
 * (x & P) mod P, with >> the arithmetic (flooring) shift of gcc and clang.
 * The first fold takes x into [-2^32, 2^32 + 2^31), the second into
 * [-2, P + 1], and one subtract takes [P, P + 1] to [0, 1], so the result
 * lies in [-2, P).  It is 0 exactly when x is 0 mod P. */
static inline int64_t reduce(int64_t x)
{
    x = (x >> 31) + (x & P);
    x = (x >> 31) + (x & P);
    return x >= P ? x - P : x;
}

/* The inverse mod P of x in (-P, P), x nonzero, as a representative in
 * (-P, P): the extended Euclidean algorithm keeps u x = a and v x = b mod P
 * while (a, b) runs down to (gcd, 0) = (1, 0). */
static int64_t invert(int64_t x)
{
    int64_t a = x < 0 ? x + P : x, b = P, u = 1, v = 0;
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

static int64_t pivots(int64_t *a, int64_t rows, int64_t cols, int64_t *found)
{
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
                row[j] = reduce(row[j] * pivot - factor * top[j]);
        }
        found[r++] = c;
    }
    return r;
}

int64_t gf_pivots(int64_t *a, int64_t rows, int64_t cols, int64_t *found)
{
    return pivots(a, rows, cols, found);
}

/* rank_split: the rank of the rows x cols matrix `a`, eliminated in place by
 * `pivots` into `found`, which must hold min(rows, cols) entries; `*left`
 * gets its count of pivot columns left of `split`, 0 <= split <= cols, which
 * is the rank of its first `split` columns, since `pivots` eliminates left
 * to right. */
static int64_t rank_split(int64_t *a, int64_t rows, int64_t cols, int64_t split, int64_t *found,
                          int64_t *left)
{
    int64_t rank = pivots(a, rows, cols, found), l = 0;
    while (l < rank && found[l] < split)
        l++;
    *left = l;
    return rank;
}

/* gf_ranks: `stack` holds `count` rows x cols matrices, each ranked alone by
 * `rank_split`.  `out` must hold 2 count entries: out[s] is member s's rank
 * and out[count + s] the rank of its first `split` columns.  Returns 0, or
 * -1 if the pivot buffer of min(rows, cols) entries cannot be allocated. */
int64_t gf_ranks(int64_t *stack, int64_t count, int64_t rows, int64_t cols, int64_t split, int64_t *out)
{
    int64_t *found = malloc(sizeof *found * (size_t)((rows < cols ? rows : cols) + 1));
    if (found == NULL)
        return -1;
    for (int64_t s = 0; s < count; s++)
        out[s] = rank_split(stack + s * rows * cols, rows, cols, split, found, out + count + s);
    free(found);
    return 0;
}

/* solve: the augmented system [A | B] in `m`, n x width with A square
 * (width >= n), solved in place by Gauss-Jordan.  Returns 1 if A is
 * singular, leaving `m` partly eliminated, or 0; then the last width - n
 * columns hold the solution X of A X = B, in [0, P).
 *
 * For each column c, the first row at or below c with a nonzero entry is
 * swapped up, scaled by the inverse of its pivot, and subtracted from every
 * other row with a nonzero entry in column c.  Entries start in (-P, P) and
 * stay there: `invert` takes a pivot of either sign, a scaled entry is a
 * product below P^2, and an updated one x - f y has |x| < P and
 * |f y| < P^2, so both are below 2P^2 < 2^63 and `reduce` applies.  An
 * entry is zero exactly when it is zero mod P, so the singular systems are
 * those of gf._solve.  Left of column c the pivot row is zero, so updates
 * start at c + 1.  The solution of a nonsingular system is unique, so it is
 * gf._solve's. */
static int solve(int64_t *m, int64_t n, int64_t width)
{
    for (int64_t c = 0; c < n; c++) {
        int64_t i = c;
        while (i < n && m[i * width + c] == 0)
            i++;
        if (i == n)
            return 1;
        int64_t *top = m + c * width;
        if (i != c) {
            int64_t *row = m + i * width;
            for (int64_t j = c; j < width; j++) {
                int64_t t = top[j];
                top[j] = row[j];
                row[j] = t;
            }
        }
        int64_t scale = invert(top[c]);
        top[c] = 1;
        for (int64_t j = c + 1; j < width; j++)
            top[j] = reduce(top[j] * scale);
        for (int64_t k = 0; k < n; k++) {
            int64_t *row = m + k * width;
            int64_t factor = row[c];
            if (k == c || factor == 0)
                continue;
            row[c] = 0;
            for (int64_t j = c + 1; j < width; j++)
                row[j] = reduce(row[j] - factor * top[j]);
        }
    }
    for (int64_t k = 0; k < n; k++)
        for (int64_t j = n; j < width; j++)
            if (m[k * width + j] < 0)
                m[k * width + j] += P;
    return 0;
}

/* gf_solve: `aug` holds `count` augmented systems, each n x width, solved in
 * place by `solve`.  Returns the index of the first singular member, left
 * partly eliminated with the members after it unsolved, or -1. */
int64_t gf_solve(int64_t *aug, int64_t count, int64_t n, int64_t width)
{
    for (int64_t s = 0; s < count; s++)
        if (solve(aug + s * n * width, n, width))
            return s;
    return -1;
}

/* matmul: out = a @ b mod P, a r x n, b n x m and out r x m, none
 * overlapping.  Each row of out accumulates the products a[i, t] b[t, :]
 * unreduced, as uint64: a product is below 2^62, so a sum below 2^63 stays
 * below 2^63 + 2^62 < 2^64 after one more, and once it reaches 2^63 (its top
 * bit) it drops by `fold`, the largest multiple of P not above 2^63, which
 * is 2^63 - 2, to below 2^62 + 2.  The sum never wraps, keeps its residue,
 * and one `%` by the constant P per entry reduces it into [0, P).  Zero
 * entries of a add nothing and are skipped. */
static void matmul(const int64_t *restrict a, const int64_t *restrict b, int64_t *restrict out,
                   int64_t r, int64_t n, int64_t m)
{
    const uint64_t fold = (UINT64_C(1) << 63) / (uint64_t)P * (uint64_t)P;
    for (int64_t i = 0; i < r; i++) {
        uint64_t *restrict acc = (uint64_t *)(out + i * m);
        for (int64_t j = 0; j < m; j++)
            acc[j] = 0;
        for (int64_t t = 0; t < n; t++) {
            uint64_t x = (uint64_t)a[i * n + t];
            if (x == 0)
                continue;
            const int64_t *restrict row = b + t * m;
            for (int64_t j = 0; j < m; j++) {
                uint64_t sum = acc[j] + x * (uint64_t)row[j];
                acc[j] = sum - (fold & (0 - (sum >> 63)));
            }
        }
        for (int64_t j = 0; j < m; j++)
            acc[j] %= (uint64_t)P;
    }
}

/* gf_matmul: `matmul` of `count` stacked pairs, a count x r x n, b
 * count x n x m and out count x r x m. */
void gf_matmul(const int64_t *restrict a, const int64_t *restrict b, int64_t *restrict out,
               int64_t count, int64_t r, int64_t n, int64_t m)
{
    for (int64_t s = 0; s < count; s++)
        matmul(a + s * r * n, b + s * n * m, out + s * r * m, r, n, m);
}

/* realize: one channel's observation matrices under one plan, from the
 * realize part of the plan's program (see gf_certify).  `g` is the channel's
 * (n1 + n2) x gcols matrix H [I_M | Z]: row r < n1 is RX1's row r, row
 * n1 + r RX2's row r, and column c the received gain of the stream whose
 * precoder is column c of [I_M | Z].  `a1` and `a2` are the rows1 x cols
 * and rows2 x cols matrices, rows1 = T n1 and rows2 = T n2 for a T-slot
 * plan: RX1's sample r of slot t is row t n1 + r of a1, and RX2's row
 * t n2 + r of a2.  Both are zeroed, then filled.  `form` holds cols entries.
 *
 * The realize part is int64 words.  First a count of gathers, then (slot,
 * gain column, form column) per fresh or coupled stream: the stream's gains
 * are added into its form column of every row of its slot.  Then a count of
 * interference entries, in slot order, each (slot, gain column, n, the n
 * owner's symbol columns, m, then (slot, rx, row, weight) per term, weight
 * in [0, P)): the form is the weighted sum of the terms' samples on the
 * owner's columns, and gain times form is added into those columns of every
 * row of the slot.  The gathers run first, and a term names an earlier slot,
 * so each form reads finished rows.  A gather adds rather than assigns,
 * since a coupled stream may be sent twice in one slot.
 *
 * Every entry and weight lies in [0, P), so each product is below 2^62, and
 * each sum is reduced into [0, P) before the next add: the sums stay below
 * 2^62 + 2^31 and `reduce` maps a non-negative x into [0, P). */
static void realize(const int64_t *q, const int64_t *g, int64_t n1, int64_t n2, int64_t gcols,
                    int64_t *a1, int64_t rows1, int64_t *a2, int64_t rows2, int64_t cols,
                    int64_t *form)
{
    memset(a1, 0, sizeof *a1 * (size_t)(rows1 * cols));
    memset(a2, 0, sizeof *a2 * (size_t)(rows2 * cols));
    const int64_t n[2] = {n1, n2};
    int64_t *a[2] = {a1, a2};
    for (int64_t e = *q++; e > 0; e--, q += 3)
        for (int rx = 0; rx < 2; rx++) {
            const int64_t *gain = g + (rx ? n1 : 0) * gcols + q[1];
            int64_t *out = a[rx] + q[0] * n[rx] * cols + q[2];
            for (int64_t r = 0; r < n[rx]; r++)
                out[r * cols] = reduce(out[r * cols] + gain[r * gcols]);
        }
    for (int64_t e = *q++; e > 0; e--) {
        int64_t slot = q[0], column = q[1], width = q[2];
        const int64_t *owned = q + 3, *term = owned + width + 1;
        int64_t terms = owned[width];
        q = term + 4 * terms;
        for (int64_t i = 0; i < width; i++)
            form[i] = 0;
        for (; term < q; term += 4) {
            const int64_t *row = a[term[1] - 1] + (term[0] * n[term[1] - 1] + term[2]) * cols;
            for (int64_t i = 0; i < width; i++)
                form[i] = reduce(form[i] + term[3] * row[owned[i]]);
        }
        for (int rx = 0; rx < 2; rx++) {
            const int64_t *gain = g + (rx ? n1 : 0) * gcols + column;
            for (int64_t r = 0; r < n[rx]; r++) {
                int64_t x = gain[r * gcols], *out = a[rx] + (slot * n[rx] + r) * cols;
                for (int64_t i = 0; i < width; i++)
                    out[owned[i]] = reduce(out[owned[i]] + x * form[i]);
            }
        }
    }
}

/* gf_realize: `realize` of `count` channels under one plan's program,
 * gains count x (n1 + n2) x gcols, a1 count x rows1 x cols and a2
 * count x rows2 x cols.  Returns 0, or -1 if the form row of cols entries
 * cannot be allocated. */
int64_t gf_realize(const int64_t *program, const int64_t *gains, int64_t count, int64_t n1,
                   int64_t n2, int64_t gcols, int64_t *a1, int64_t rows1, int64_t *a2,
                   int64_t rows2, int64_t cols)
{
    int64_t *form = malloc(sizeof *form * (size_t)(cols + 1));
    if (form == NULL)
        return -1;
    for (int64_t s = 0; s < count; s++)
        realize(program + program[0], gains + s * (n1 + n2) * gcols, n1, n2, gcols,
                a1 + s * rows1 * cols, rows1, a2 + s * rows2 * cols, rows2, cols, form);
    free(form);
    return 0;
}

/* gf_certify: achieved_dof's work on a block of `count` channels under one
 * plan without coupled streams, by the plan's program
 * (schemes._plan_program).  `h` holds each channel's (n1 + n2) x m matrix H,
 * RX1's rows first.  For each channel s it writes [I_M | Z] into member s of
 * `columns` (count x m x cols): the template's unit entries, then each
 * AP-ZF target's k' x n solution X of A X = -B into rows 0..k'-1 of its Z
 * columns, where [A | B] is gathered from the target receiver's rows of H
 * (RX2's start at row n1) and B is negated as it is gathered.  For the
 * first `ranked` channels it also forms the gains H [I_M | Z] (H itself
 * for a plan without AP-ZF), realizes them, and writes each receiver's
 * recovered-symbol count to recovered[2 s] (RX1) and recovered[2 s + 1]
 * (RX2): the rank of its matrix gathered along its rank order
 * [interference | desired], less the rank of the interference columns, or
 * 0 without desired symbols.
 *
 * The program is int64 words: the offset of its realize part (see
 * `realize`), T, S (the symbol count, which is the realize part's column
 * count), and the largest k' (k' + n) of its systems (0 without AP-ZF);
 * then the count of unit entries and their (row, column) pairs; then the
 * count of AP-ZF systems and per system (rx, k', n, first Z column, then
 * the k' x (k' + n) flat indices of [A | B] within one channel's rows of
 * the receiver, row-major, m entries a row); then for RX1 and RX2 each the
 * split, where the desired columns start, and the S columns of the rank
 * order.  Solving, realizing and ranking use the routines of the exports
 * above, so each member's results are those of gf_solve, gf_matmul,
 * gf_realize and gf_ranks on it.
 *
 * H's entries lie in [0, P), so the gathered systems lie in (-P, P), as
 * `solve` takes them.  Returns 0; 1 if some channel's AP-ZF block is
 * singular, which stops the block with later channels unwritten; or -1 if
 * the scratch buffer cannot be allocated. */
int64_t gf_certify(const int64_t *program, const int64_t *h, int64_t count, int64_t n1, int64_t n2,
                   int64_t m, int64_t *columns, int64_t cols, int64_t *recovered, int64_t ranked)
{
    const int64_t T = program[1], S = program[2], *units = program + 4;
    const int64_t *systems = units + 1 + 2 * units[0], *orders = systems + 1;
    for (int64_t e = systems[0]; e > 0; e--)
        orders += 4 + orders[1] * (orders[1] + orders[2]);
    const int64_t n[2] = {n1, n2}, rows = n1 + n2, tall = T * (n1 > n2 ? n1 : n2);
    int64_t *aug = malloc(sizeof *aug * (size_t)(program[3] + rows * cols + T * rows * S + tall * S
                                                 + S + (tall < S ? tall : S) + 1));
    if (aug == NULL)
        return -1;
    int64_t *gains = aug + program[3], *a[2] = {gains + rows * cols, gains + rows * cols + T * n1 * S};
    int64_t *stack = a[1] + T * n2 * S, *form = stack + tall * S, *found = form + S, status = 0;
    for (int64_t s = 0; s < count && !status; s++) {
        const int64_t *hs = h + s * rows * m, *q = systems + 1;
        int64_t *z = columns + s * m * cols;
        memset(z, 0, sizeof *z * (size_t)(m * cols));
        for (int64_t u = 0; u < units[0]; u++)
            z[units[1 + 2 * u] * cols + units[2 + 2 * u]] = 1;
        for (int64_t e = systems[0]; e > 0 && !status; e--) {
            const int64_t kp = q[1], width = kp + q[2], *index = q + 4;
            const int64_t *hr = hs + (q[0] == 2 ? n1 * m : 0);
            int64_t *x = z + q[3];
            for (int64_t i = 0; i < kp * width; i++)
                aug[i] = i % width < kp ? hr[index[i]] : -hr[index[i]];
            status = solve(aug, kp, width);
            for (int64_t i = 0; i < kp && !status; i++)
                memcpy(x + i * cols, aug + i * width + kp, sizeof *x * (size_t)(width - kp));
            q = index + kp * width;
        }
        if (status || s >= ranked)
            continue;
        if (systems[0])
            matmul(hs, z, gains, rows, m, cols);
        realize(program + program[0], systems[0] ? gains : hs, n1, n2, systems[0] ? cols : m, a[0],
                T * n1, a[1], T * n2, S, form);
        for (int rx = 0; rx < 2; rx++) {
            const int64_t *order = orders + rx * (S + 1) + 1, split = order[-1], r = T * n[rx];
            int64_t rank = 0, left = 0;
            if (split < S) {
                for (int64_t i = 0; i < r; i++)
                    for (int64_t c = 0; c < S; c++)
                        stack[i * S + c] = a[rx][i * S + order[c]];
                rank = rank_split(stack, r, S, split, found, &left);
            }
            recovered[2 * s + rx] = rank - left;
        }
    }
    free(aug);
    return status;
}

/* channel_draws: numpy's channel draws, replayed bit for bit for channel.py.
 * Draw j of `count` comes from the generator of
 * default_rng(SeedSequence((seed, index_j))) and fills `cells` consecutive
 * entries of `out`.  `seed` holds the seed's `words` 32-bit words and
 * `indices` the `count` indices (each below 2^32, so one word), all
 * little-endian.  With `field` nonzero, `out` is int64 and each draw is
 * integers(1, P, size=cells, dtype=int64), residues in [1, P); with `field`
 * zero, `out` is double and each draw is uniform(lo, hi, size=cells), each
 * cell in [lo, hi), with every cell's sign then taken from integers(0, 2,
 * size=cells, dtype=int64), 0 meaning negative.
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
                   int64_t count, int64_t cells, int64_t field, double lo, double hi, void *out)
{
    double range = hi - lo;
    pcg64 g;
    for (int64_t j = 0; j < count; j++) {
        seed_pcg64(&g, seed, words, word(indices + 4 * j));
        if (field) {
            int64_t *draw = (int64_t *)out + j * cells;
            for (int64_t c = 0; c < cells; c++)
                draw[c] = 1 + (int64_t)bounded(&g, (uint32_t)(P - 2));
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
