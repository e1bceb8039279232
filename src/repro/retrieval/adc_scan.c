/*
 * The compiled ADC scan and rerank behind repro.retrieval.adc.scan_topk and
 * repro.retrieval.adc.rerank_exact.
 *
 * scan_topk_<real>_<code> scans n_q queries, one after another, each over
 * its list of [lo, hi) column ranges of a (columns, stride) code layout,
 * and keeps each query's kk smallest distances. The arithmetic is the NumPy
 * kernel's, operation for operation: a row's table entries (already scaled
 * by -2) are summed left to right, then acc + (q_sq + norm) is clamped at 0
 * the way np.maximum(d, 0.0) clamps (-0 to +0, NaN kept). Selection is a
 * max-heap on (value, visit), where visit counts one query's rows in the
 * order its ranges are walked: a row is compared with the current kk-th
 * value before the heap is touched and enters only if strictly smaller, so
 * a tie keeps the row visited first.
 *
 * rerank_f64_<code> re-scores n_cand candidate columns per query in float64
 * the way the NumPy rerank does -- per-codebook entries summed left to
 * right, joint codes of a pair-fused layout split by / and % K, then
 * (q_sq + norm) - 2 * cross, clamped -- and keeps the kk smallest on
 * (distance, id).
 *
 * Built with -ffp-contract=off and without -ffast-math, so float and double
 * round exactly as NumPy does. Heaps live in the caller's output rows and
 * scratch: no static state, so calls may run concurrently (the ctypes
 * binding releases the GIL). Outputs are ascending. Each function returns 0,
 * or -1 for a range outside [0, n], a position outside [0, n), or a query
 * with fewer than kk candidates.
 */
#include <stdint.h>

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

#define DEFINE_SCAN(REAL, R, CODE, C)                                         \
    int64_t scan_topk_##R##_##C(                                              \
        const REAL *tables, const REAL *q_sq, int64_t n_q, int64_t cols,      \
        int64_t width, const CODE *c, int64_t stride, int64_t n,              \
        const REAL *norms, const int64_t *ranges, int64_t n_ranges,           \
        int64_t range_stride, int64_t kk, REAL *out_values,                   \
        int64_t *out_columns)                                                 \
    {                                                                         \
        int64_t *s = out_columns + n_q * kk; /* scratch: kk visits */         \
        for (int64_t q = 0; q < n_q; q++) {                                   \
            const REAL *t = tables + q * cols * width;                        \
            const int64_t *spans = ranges + q * range_stride;                 \
            const REAL qs = q_sq[q];                                          \
            REAL *v = out_values + q * kk, top = 0;                           \
            int64_t *p = out_columns + q * kk, size = 0, visit = 0;           \
            switch (cols) {                                                   \
                CASE_COLS(REAL, R, 1)                                         \
                CASE_COLS(REAL, R, 2)                                         \
                CASE_COLS(REAL, R, 3)                                         \
                CASE_COLS(REAL, R, 4)                                         \
                CASE_COLS(REAL, R, 5)                                         \
                CASE_COLS(REAL, R, 6)                                         \
                CASE_COLS(REAL, R, 7)                                         \
                CASE_COLS(REAL, R, 8)                                         \
            default: {                                                        \
                WALK_RANGES(REAL, R, cols)                                    \
            }                                                                 \
            }                                                                 \
            if (size < kk)                                                    \
                return -1;                                                    \
            sort_heap_##R(v, s, p, kk);                                       \
        }                                                                     \
        return 0;                                                             \
    }

#define DEFINE_RERANK(CODE, C)                                                \
    int64_t rerank_f64_##C(                                                   \
        const double *lut, const double *q_sq, int64_t n_q, int64_t m,        \
        int64_t k_words, const CODE *c, int64_t cols, int64_t stride,         \
        int64_t n, const double *norms, const int64_t *positions,             \
        const int64_t *ids, int64_t n_cand, int64_t kk, double *out_values,   \
        int64_t *out_ids)                                                     \
    {                                                                         \
        int64_t *p = out_ids + n_q * kk; /* scratch: kk candidate slots */    \
        for (int64_t q = 0; q < n_q; q++) {                                   \
            const double *t = lut + q * m * k_words;                          \
            double *v = out_values + q * kk;                                  \
            int64_t *s = out_ids + q * kk, size = 0;                          \
            for (int64_t i = 0; i < n_cand; i++) {                            \
                const int64_t pos = positions[q * n_cand + i];                \
                const int64_t id = ids[q * n_cand + i];                       \
                if (pos < 0 || pos >= n)                                      \
                    return -1;                                                \
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
                double d = (q_sq[q] + norms[pos]) - 2.0 * cross;              \
                if (d <= 0)                                                   \
                    d = 0;                                                    \
                if (size < kk) {                                              \
                    v[size] = d, s[size] = id, p[size] = i;                   \
                    sift_up_f64(v, s, p, size++);                             \
                } else if (d < v[0] || (d == v[0] && id < s[0])) {            \
                    v[0] = d, s[0] = id, p[0] = i;                            \
                    sift_down_f64(v, s, p, kk, 0);                            \
                }                                                             \
            }                                                                 \
            if (size < kk)                                                    \
                return -1;                                                    \
            sort_heap_f64(v, s, p, kk);                                       \
        }                                                                     \
        return 0;                                                             \
    }

DEFINE_HEAP(float, f32)
DEFINE_HEAP(double, f64)
DEFINE_SCAN(float, f32, uint8_t, u8)
DEFINE_SCAN(float, f32, uint16_t, u16)
DEFINE_SCAN(float, f32, uint32_t, u32)
DEFINE_SCAN(double, f64, uint8_t, u8)
DEFINE_SCAN(double, f64, uint16_t, u16)
DEFINE_SCAN(double, f64, uint32_t, u32)
DEFINE_RERANK(uint8_t, u8)
DEFINE_RERANK(uint16_t, u16)
DEFINE_RERANK(uint32_t, u32)
