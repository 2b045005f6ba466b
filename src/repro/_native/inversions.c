/* Kendall-tau discordant pairs as inversion counts, one row at a time.
 *
 * count_inversions_batch writes to out[t] the number of pairs i < j with
 * rows[t][i] > rows[t][j] (ties are not inversions) for each row of the
 * C-contiguous (trials, n) int64 array rows.  It is a bottom-up merge
 * sort that ping-pongs between the caller's two length-n scratch
 * buffers; the caller's array is never written.
 *
 * rank_movement_batch fuses a trial's re-ranking with its comparison to
 * the baseline.  keys is the C-contiguous (trials, n) float64 array of
 * ascending sort keys (never NaN), base_order the baseline's rows best
 * first, top[row] = 1 for the baseline's first kept rows.  Per trial it
 * merge-sorts the (key, row) pairs taken in baseline order, ties by
 * ascending row -- the order of a stable argsort of the keys -- and
 * writes the inversions it meets (the pairs the trial ranks the other
 * way round from the baseline) to discordant[t] and the number of top
 * rows among the trial's first kept rows to overlap[t].  Scratch is the
 * caller's: 2n doubles and 2n int64.
 *
 * Both are loaded through ctypes, which releases the GIL for the length
 * of a call.
 */
#include <stdint.h>
#include <string.h>

void count_inversions_batch(const int64_t *rows, int64_t trials, int64_t n,
                            int64_t *out, int64_t *scratch_a, int64_t *scratch_b)
{
    for (int64_t t = 0; t < trials; t++) {
        int64_t *src = scratch_a, *dst = scratch_b, *swap;
        int64_t count = 0;
        memcpy(src, rows + t * n, (size_t)n * sizeof(int64_t));
        for (int64_t width = 1; width < n; width *= 2) {
            for (int64_t lo = 0; lo < n; lo += 2 * width) {
                int64_t mid = lo + width < n ? lo + width : n;
                int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
                int64_t i = lo, j = mid, k = lo;
                while (i < mid && j < hi) {
                    /* branch-free: right = 1 when src[j] jumps the mid - i
                       left values still unmerged, each one an inversion */
                    int64_t a = src[i], b = src[j], right = b < a;
                    count += right * (mid - i);
                    dst[k++] = right ? b : a;
                    j += right;
                    i += 1 - right;
                }
                while (i < mid) dst[k++] = src[i++];
                while (j < hi) dst[k++] = src[j++];
            }
            swap = src; src = dst; dst = swap;
        }
        out[t] = count;
    }
}

void rank_movement_batch(const double *keys, int64_t trials, int64_t n,
                         const int64_t *base_order, const uint8_t *top, int64_t kept,
                         int64_t *discordant, int64_t *overlap,
                         double *key_scratch, int64_t *row_scratch)
{
    for (int64_t t = 0; t < trials; t++) {
        const double *trial = keys + t * n;
        double *key_src = key_scratch, *key_dst = key_scratch + n, *key_swap;
        int64_t *row_src = row_scratch, *row_dst = row_scratch + n, *row_swap;
        int64_t count = 0, members = 0;
        for (int64_t i = 0; i < n; i++) {
            row_src[i] = base_order[i];
            key_src[i] = trial[base_order[i]];
        }
        for (int64_t width = 1; width < n; width *= 2) {
            for (int64_t lo = 0; lo < n; lo += 2 * width) {
                int64_t mid = lo + width < n ? lo + width : n;
                int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
                int64_t i = lo, j = mid, k = lo;
                /* halves already in order (the common case for a small
                   perturbation): copy the block, no inversions in it */
                if (mid == hi || key_src[mid - 1] < key_src[mid]
                    || (key_src[mid - 1] == key_src[mid] && row_src[mid - 1] < row_src[mid])) {
                    memcpy(key_dst + lo, key_src + lo, (size_t)(hi - lo) * sizeof(double));
                    memcpy(row_dst + lo, row_src + lo, (size_t)(hi - lo) * sizeof(int64_t));
                    continue;
                }
                while (i < mid && j < hi) {
                    /* right = 1 when (key, row) at j precedes the one at
                       i, jumping the mid - i left pairs still unmerged */
                    double a = key_src[i], b = key_src[j];
                    int64_t right = b < a || (b == a && row_src[j] < row_src[i]);
                    count += right * (mid - i);
                    key_dst[k] = right ? b : a;
                    row_dst[k++] = right ? row_src[j] : row_src[i];
                    j += right;
                    i += 1 - right;
                }
                while (i < mid) { key_dst[k] = key_src[i]; row_dst[k++] = row_src[i++]; }
                while (j < hi) { key_dst[k] = key_src[j]; row_dst[k++] = row_src[j++]; }
            }
            key_swap = key_src; key_src = key_dst; key_dst = key_swap;
            row_swap = row_src; row_src = row_dst; row_dst = row_swap;
        }
        for (int64_t i = 0; i < kept; i++) members += top[row_src[i]];
        discordant[t] = count;
        overlap[t] = members;
    }
}
