/* Kendall-tau discordant pairs as inversion counts, one row at a time.
 *
 * count_inversions_batch writes to out[t] the number of pairs i < j with
 * rows[t][i] > rows[t][j] (ties are not inversions) for each row of the
 * C-contiguous (trials, n) int64 array rows.  It is a bottom-up merge
 * sort that ping-pongs between the caller's two length-n scratch
 * buffers; the caller's array is never written.  Loaded through ctypes,
 * which releases the GIL for the length of the call.
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
