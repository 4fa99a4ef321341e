/* Pivot columns of a matrix over GF(p): the compiled twin of gf._eliminate.
 *
 * `a` is a C-ordered rows x cols int64 matrix with entries in [0, p) and
 * 2 <= p < 2^31; it is eliminated in place.  `pivots` must hold
 * min(rows, cols) entries.  Returns the number of pivot columns written.
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
