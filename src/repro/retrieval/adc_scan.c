/*
 * The compiled ADC search behind repro.retrieval.adc.search_ranges and
 * repro.retrieval.adc.scan_topk.
 *
 * search_<code> runs a float32 layout's whole query path, one query after
 * another, in one call:
 *   1. its float32 tables from the float64 ones: (float)(-2.0 * x), and for a
 *      pair-fused layout the pair sums a + b -- the IEEE operations of the
 *      NumPy adc.scan_tables, so the same bits;
 *   2. the scan of its [lo, hi) column ranges, keeping the top k_scan;
 *   3. the selection of its k best survivors on (distance, id): re-scored in
 *      float64 with the NumPy rerank's operations (per-codebook entries summed
 *      left to right, joint codes split by / and % K, then (q_sq + norm) -
 *      2 * cross, clamped), or, without the rerank, their float32 values
 *      read as float64. Ids are positions, or their image under an id map.
 *
 * scan_topk_<real>_<code> is step 2 alone over tables the caller built: the
 * float64 scans (mutable segments, float64 layouts) and the pool workers'
 * shards use it.
 *
 * The scan sums a row's table entries (already scaled by -2) left to right,
 * then acc + (q_sq + norm) is clamped at 0 the way np.maximum(d, 0.0) clamps
 * (-0 to +0, NaN kept). Selection is a max-heap on (value, visit), where
 * visit counts one query's rows in the order its ranges are walked: a row is
 * compared with the current k-th value before the heap is touched and enters
 * only if strictly smaller, so a tie keeps the row visited first.
 *
 * Built with -ffp-contract=off and without -ffast-math, so float and double
 * round exactly as NumPy does. Heaps and tables live in the caller's output
 * rows or in scratch allocated per call: no static state, so calls may run
 * concurrently (the ctypes binding releases the GIL). Outputs are ascending.
 * Both entry points return -1 for a range outside [0, n]; scan_topk also for
 * a query with fewer than kk candidates, search -2 when scratch cannot be
 * allocated.
 */
#include <stdint.h>
#include <stdlib.h>

/* Max-heap helpers over (v, s) with payload p: the root is evicted first. */
#define DEFINE_HEAP(REAL, R)                                                  \
    static inline int after_##R(const REAL *v, const int64_t *s, int64_t a,   \
                                int64_t b)                                    \
    {                                                                         \
        return v[a] > v[b] || (v[a] == v[b] && s[a] > s[b]);                  \
    }                                                                         \
    static inline void swap_##R(REAL *v, int64_t *s, int64_t *p, int64_t a,   \
                                int64_t b)                                    \
    {                                                                         \
        REAL tv = v[a];                                                       \
        int64_t ts = s[a], tp = p[a];                                         \
        v[a] = v[b], s[a] = s[b], p[a] = p[b];                                \
        v[b] = tv, s[b] = ts, p[b] = tp;                                      \
    }                                                                         \
    static void sift_down_##R(REAL *v, int64_t *s, int64_t *p, int64_t n,     \
                              int64_t i)                                      \
    {                                                                         \
        for (;;) {                                                            \
            int64_t c = 2 * i + 1;                                            \
            if (c >= n)                                                       \
                return;                                                       \
            if (c + 1 < n && after_##R(v, s, c + 1, c))                       \
                c++;                                                          \
            if (!after_##R(v, s, c, i))                                       \
                return;                                                       \
            swap_##R(v, s, p, i, c);                                          \
            i = c;                                                            \
        }                                                                     \
    }                                                                         \
    static void sift_up_##R(REAL *v, int64_t *s, int64_t *p, int64_t i)       \
    {                                                                         \
        for (; i > 0 && after_##R(v, s, i, (i - 1) / 2); i = (i - 1) / 2)     \
            swap_##R(v, s, p, i, (i - 1) / 2);                                \
    }                                                                         \
    /* Heap to ascending (v, s) order, in place. */                           \
    static void sort_heap_##R(REAL *v, int64_t *s, int64_t *p, int64_t n)     \
    {                                                                         \
        for (int64_t end = n - 1; end > 0; end--) {                           \
            swap_##R(v, s, p, 0, end);                                        \
            sift_down_##R(v, s, p, end, 0);                                   \
        }                                                                     \
    }

/* Row by row, the columns unrolled when COLS is a constant (1 to 8 are:
 * a loop over a run-time column count measured twice as slow). The
 * fill-then-replace shape below is also measured: folding the two heap
 * branches into one helper spilled the column pointers out of registers. */
#define WALK_RANGES(REAL, R, COLS)                                            \
    for (int64_t r = 0; r < n_ranges; r++) {                                  \
        const int64_t lo = spans[2 * r], hi = spans[2 * r + 1];               \
        if (lo < 0 || hi > n || lo > hi)                                      \
            return -1;                                                        \
        for (int64_t i = lo; i < hi; i++, visit++) {                          \
            REAL acc = t[c[i]];                                               \
            for (int64_t j = 1; j < (COLS); j++)                              \
                acc += t[j * width + c[j * stride + i]];                      \
            REAL d = acc + (qs + norms[i]);                                   \
            if (d <= 0)                                                       \
                d = 0;                                                        \
            if (size < kk) {                                                  \
                v[size] = d, s[size] = visit, p[size] = i;                    \
                sift_up_##R(v, s, p, size++);                                 \
                top = v[0];                                                   \
            } else if (d < top) {                                             \
                v[0] = d, s[0] = visit, p[0] = i;                             \
                sift_down_##R(v, s, p, kk, 0);                                \
                top = v[0];                                                   \
            }                                                                 \
        }                                                                     \
    }

#define CASE_COLS(REAL, R, COLS)                                              \
    case COLS: {                                                              \
        WALK_RANGES(REAL, R, COLS)                                            \
    } break;

/* One query's scan of its n_ranges spans over tables t: its kk best, in
 * ascending (value, visit) order, into v / s (visits) / p (positions).
 * Forced inline: as a called function it measured 15-30 % slower. */
#define DEFINE_SCAN_ONE(REAL, R, CODE, C)                                     \
    static inline __attribute__((always_inline)) int64_t scan_one_##R##_##C(  \
        const REAL *t, REAL qs, int64_t cols, int64_t width, const CODE *c,   \
        int64_t stride, int64_t n, const REAL *norms, const int64_t *spans,   \
        int64_t n_ranges, int64_t kk, REAL *v, int64_t *s, int64_t *p)        \
    {                                                                         \
        REAL top = 0;                                                         \
        int64_t size = 0, visit = 0;                                          \
        switch (cols) {                                                       \
            CASE_COLS(REAL, R, 1)                                             \
            CASE_COLS(REAL, R, 2)                                             \
            CASE_COLS(REAL, R, 3)                                             \
            CASE_COLS(REAL, R, 4)                                             \
            CASE_COLS(REAL, R, 5)                                             \
            CASE_COLS(REAL, R, 6)                                             \
            CASE_COLS(REAL, R, 7)                                             \
            CASE_COLS(REAL, R, 8)                                             \
        default: {                                                            \
            WALK_RANGES(REAL, R, cols)                                        \
        }                                                                     \
        }                                                                     \
        if (size < kk)                                                        \
            return -1;                                                        \
        sort_heap_##R(v, s, p, kk);                                           \
        return 0;                                                             \
    }

#define DEFINE_SCAN(REAL, R, CODE, C)                                         \
    DEFINE_SCAN_ONE(REAL, R, CODE, C)                                         \
    int64_t scan_topk_##R##_##C(                                              \
        const REAL *tables, const REAL *q_sq, int64_t n_q, int64_t cols,      \
        int64_t width, const CODE *c, int64_t stride, int64_t n,              \
        const REAL *norms, const int64_t *ranges, int64_t n_ranges,           \
        int64_t range_stride, int64_t kk, REAL *out_values,                   \
        int64_t *out_columns)                                                 \
    {                                                                         \
        int64_t *s = out_columns + n_q * kk; /* scratch: kk visits */         \
        for (int64_t q = 0; q < n_q; q++) {                                   \
            if (scan_one_##R##_##C(                                           \
                    tables + q * cols * width, q_sq[q], cols, width, c,       \
                    stride, n, norms, ranges + q * range_stride, n_ranges,    \
                    kk, out_values + q * kk, s, out_columns + q * kk))        \
                return -1;                                                    \
        }                                                                     \
        return 0;                                                             \
    }

/* One query's k best of n_cand survivors (positions) on (distance, id),
 * ascending, into v / s (ids). t is the query's float64 (m, k_words) table
 * to re-score with, or NULL to take the survivors' float32 values v32. */
#define DEFINE_SELECT(CODE, C)                                                \
    static void select_##C(                                                   \
        const double *t, double qs, int64_t m, int64_t k_words,               \
        const CODE *c, int64_t cols, int64_t stride, const double *norms,     \
        const float *v32, const int64_t *positions, const int64_t *ids,       \
        int64_t n_cand, int64_t kk, double *v, int64_t *s, int64_t *p)        \
    {                                                                         \
        int64_t size = 0;                                                     \
        for (int64_t i = 0; i < n_cand; i++) {                                \
            const int64_t pos = positions[i];                                 \
            const int64_t id = ids ? ids[pos] : pos;                          \
            double d = v32[i];                                                \
            if (t) {                                                          \
                double cross = 0;                                             \
                for (int64_t j = 0; j < m; j++) {                             \
                    int64_t code;                                             \
                    if (cols == m) {                                          \
                        code = c[j * stride + pos];                           \
                    } else {                                                  \
                        const int64_t joint = c[(j / 2) * stride + pos];      \
                        code = j % 2 ? joint % k_words : joint / k_words;     \
                    }                                                         \
                    cross = j ? cross + t[j * k_words + code] : t[code];      \
                }                                                             \
                d = (qs + norms[pos]) - 2.0 * cross;                          \
                if (d <= 0)                                                   \
                    d = 0;                                                    \
            }                                                                 \
            if (size < kk) {                                                  \
                v[size] = d, s[size] = id, p[size] = i;                       \
                sift_up_f64(v, s, p, size++);                                 \
            } else if (d < v[0] || (d == v[0] && id < s[0])) {                \
                v[0] = d, s[0] = id, p[0] = i;                                \
                sift_down_f64(v, s, p, kk, 0);                                \
            }                                                                 \
        }                                                                     \
        sort_heap_f64(v, s, p, kk);                                           \
    }

/* Writes min(k, fewest candidates of any query) answers per query, at a row
 * stride of k, and returns that count (or -1 / -2). */
#define DEFINE_SEARCH(CODE, C)                                                \
    DEFINE_SELECT(CODE, C)                                                    \
    int64_t search_##C(                                                       \
        const double *lut, const double *q_sq, int64_t n_q, int64_t m,        \
        int64_t k_words, const CODE *c, int64_t cols, int64_t stride,         \
        int64_t n, const float *norms, const double *norms64, int64_t fused,  \
        const int64_t *ranges, int64_t n_ranges, int64_t range_stride,        \
        const int64_t *ids, int64_t k_scan, int64_t k, int64_t rerank,        \
        double *out_values, int64_t *out_ids)                                 \
    {                                                                         \
        int64_t fewest = n_q ? INT64_MAX : 0;                                 \
        for (int64_t q = 0; q < n_q; q++) {                                   \
            const int64_t *spans = ranges + q * range_stride;                 \
            int64_t total = 0;                                                \
            for (int64_t r = 0; r < n_ranges; r++) {                          \
                const int64_t lo = spans[2 * r], hi = spans[2 * r + 1];       \
                if (lo < 0 || hi > n || lo > hi)                              \
                    return -1;                                                \
                total += hi - lo;                                             \
            }                                                                 \
            fewest = total < fewest ? total : fewest;                         \
        }                                                                     \
        const int64_t kk = k_scan < fewest ? k_scan : fewest;                 \
        const int64_t k_out = k < kk ? k : kk;                                \
        if (k_out <= 0)                                                       \
            return 0;                                                         \
        const int64_t width = fused ? k_words * k_words : k_words;            \
        const int64_t staged = fused ? m * k_words : 0;                       \
        int64_t *scratch = malloc(sizeof(int64_t) * (3 * kk) +                \
                                  sizeof(float) * (kk + cols * width +        \
                                                   staged));                  \
        if (!scratch)                                                         \
            return -2;                                                        \
        int64_t *visits = scratch, *positions = scratch + kk;                 \
        int64_t *slots = scratch + 2 * kk;                                    \
        float *v32 = (float *)(scratch + 3 * kk);                             \
        float *t32 = v32 + kk, *t_staged = t32 + cols * width;                \
        int64_t status = k_out;                                               \
        for (int64_t q = 0; q < n_q; q++) {                                   \
            const double *l = lut + q * m * k_words;                          \
            if (fused) {                                                      \
                for (int64_t i = 0; i < m * k_words; i++)                     \
                    t_staged[i] = (float)(-2.0 * l[i]);                       \
                for (int64_t j = 0; j < cols; j++) {                          \
                    const float *x = t_staged + 2 * j * k_words;              \
                    const float *y = x + k_words;                             \
                    float *out = t32 + j * width;                             \
                    for (int64_t a = 0; a < k_words; a++)                     \
                        for (int64_t b = 0; b < k_words; b++)                 \
                            out[a * k_words + b] = x[a] + y[b];               \
                }                                                             \
            } else {                                                          \
                for (int64_t i = 0; i < m * k_words; i++)                     \
                    t32[i] = (float)(-2.0 * l[i]);                            \
            }                                                                 \
            if (scan_one_f32_##C(t32, (float)q_sq[q], cols, width, c,         \
                                 stride, n, norms, ranges + q * range_stride, \
                                 n_ranges, kk, v32, visits, positions)) {     \
                status = -1;                                                  \
                break;                                                        \
            }                                                                 \
            select_##C(rerank ? l : NULL, q_sq[q], m, k_words, c, cols,       \
                       stride, norms64, v32, positions, ids, kk, k_out,       \
                       out_values + q * k, out_ids + q * k, slots);           \
        }                                                                     \
        free(scratch);                                                        \
        return status;                                                        \
    }

DEFINE_HEAP(float, f32)
DEFINE_HEAP(double, f64)
DEFINE_SCAN(float, f32, uint8_t, u8)
DEFINE_SCAN(float, f32, uint16_t, u16)
DEFINE_SCAN(float, f32, uint32_t, u32)
DEFINE_SCAN(double, f64, uint8_t, u8)
DEFINE_SCAN(double, f64, uint16_t, u16)
DEFINE_SCAN(double, f64, uint32_t, u32)
DEFINE_SEARCH(uint8_t, u8)
DEFINE_SEARCH(uint16_t, u16)
DEFINE_SEARCH(uint32_t, u32)
