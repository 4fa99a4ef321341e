/* Exact linear algebra over GF(p): the compiled twins of the numpy kernels in
 * gf.py.  `gf_pivots` finds pivot columns (gf._eliminate), `gf_solve` solves
 * stacked square systems (gf._solve) and `gf_matmul` multiplies stacked
 * matrices (gf._matmul).  Every matrix is C-ordered int64 with entries in
 * [0, p), and p is a prime with 2 <= p < 2^31; gf.py checks both.
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

/* gf_solve: `aug` holds `count` augmented systems [A | B], each n x width with
 * A square (width >= n), solved in place by Gauss-Jordan.  Returns the index
 * of the first singular member, whose system and those after it are left
 * partly eliminated, or -1; then each member's last width - n columns hold
 * its solution X of A X = B, in [0, p).
 *
 * For each column c, the first row at or below c with a nonzero entry is
 * swapped up, scaled by the inverse of its pivot, and subtracted from every
 * other row with a nonzero entry in column c.  Entries stay in (-p, p): a
 * scaled entry is a product below p^2, and an updated one x - f y has
 * |x| < p and |f y| < p^2, so both are below 2p^2 < 2^63 and `reduce`
 * applies.  Left of column c the pivot row is zero, so updates start at
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
