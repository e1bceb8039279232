/*
 * The compiled kernels of repro.native: the ADC search behind
 * repro.retrieval.adc.search_ranges, and three passes of index builds, after
 * it in this file: the row-select pass (select_rows), the row decode behind
 * repro.retrieval.adc.reconstruct (decode_<code>) and the cluster-sum pass of
 * k-means' update step (cluster_sums). Each does the NumPy path's float
 * operations in its order, so the two agree bit for bit.
 *
 * search_<code> runs a float32 layout's whole query path -- the flat engine's,
 * an IVF layer's or a mutable segment's -- one query after another, in one
 * call:
 *   1. its float32 tables from the float64 ones: (float)(-2.0 * x), and for a
 *      pair-fused layout the pair sums a + b -- the IEEE operations of the
 *      NumPy adc.scan_tables, so the same bits;
 *   2. the scan of its [lo, hi) column ranges, keeping the top k_scan (the
 *      operations of the NumPy adc.scan_topk);
 *   3. the selection of its k best survivors on (distance, id): re-scored in
 *      float64 with the NumPy rerank's operations (per-codebook entries summed
 *      left to right, joint codes split by / and % K, then (q_sq + norm) -
 *      2 * cross, clamped), or, without the rerank, their float32 values
 *      read as float64. Ids are positions, or their image under an id map.
 *
 * search_cells_<code> is search_<code> behind an IVF layer's coarse probe:
 * from the BLAS product cross = queries @ centroids.T it ranks each query's
 * cells (probe_cells below) until they hold the caller's `need` rows (k_scan
 * plus the layout's +inf tombstoned rows, at most n) and walks them as its
 * ranges, in the same call.
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
 * Both entry points return -1 for a range outside [0, n] and -2 when scratch
 * cannot be allocated.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

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
#define WALK_RANGES(COLS)                                                     \
    for (int64_t r = 0; r < n_ranges; r++) {                                  \
        const int64_t lo = spans[2 * r], hi = spans[2 * r + 1];               \
        if (lo < 0 || hi > n || lo > hi)                                      \
            return -1;                                                        \
        for (int64_t i = lo; i < hi; i++, visit++) {                          \
            float acc = t[c[i]];                                              \
            for (int64_t j = 1; j < (COLS); j++)                              \
                acc += t[j * width + c[j * stride + i]];                      \
            float d = acc + (qs + norms[i]);                                  \
            if (d <= 0)                                                       \
                d = 0;                                                        \
            if (size < kk) {                                                  \
                v[size] = d, s[size] = visit, p[size] = i;                    \
                sift_up_f32(v, s, p, size++);                                 \
                top = v[0];                                                   \
            } else if (d < top) {                                             \
                v[0] = d, s[0] = visit, p[0] = i;                             \
                sift_down_f32(v, s, p, kk, 0);                                \
                top = v[0];                                                   \
            }                                                                 \
        }                                                                     \
    }

#define CASE_COLS(COLS)                                                       \
    case COLS: {                                                              \
        WALK_RANGES(COLS)                                                     \
    } break;

/* One query's scan of its n_ranges spans over float32 tables t: its kk best,
 * in ascending (value, visit) order, into v / s (visits) / p (positions).
 * Forced inline: as a called function it measured 15-30 % slower. */
#define DEFINE_SCAN_ONE(CODE, C)                                              \
    static inline __attribute__((always_inline)) int64_t scan_one_##C(        \
        const float *t, float qs, int64_t cols, int64_t width, const CODE *c, \
        int64_t stride, int64_t n, const float *norms, const int64_t *spans,  \
        int64_t n_ranges, int64_t kk, float *v, int64_t *s, int64_t *p)       \
    {                                                                         \
        float top = 0;                                                        \
        int64_t size = 0, visit = 0;                                          \
        switch (cols) {                                                       \
            CASE_COLS(1)                                                      \
            CASE_COLS(2)                                                      \
            CASE_COLS(3)                                                      \
            CASE_COLS(4)                                                      \
            CASE_COLS(5)                                                      \
            CASE_COLS(6)                                                      \
            CASE_COLS(7)                                                      \
            CASE_COLS(8)                                                      \
        default: {                                                            \
            WALK_RANGES(cols)                                                 \
        }                                                                     \
        }                                                                     \
        if (size < kk)                                                        \
            return -1;                                                        \
        sort_heap_f32(v, s, p, kk);                                           \
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
    DEFINE_SCAN_ONE(CODE, C)                                                  \
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
            if (scan_one_##C(t32, (float)q_sq[q], cols, width, c,             \
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
    }                                                                         \
    int64_t search_cells_##C(                                                 \
        const double *lut, const double *q_sq, int64_t n_q, int64_t m,        \
        int64_t k_words, const CODE *c, int64_t cols, int64_t stride,         \
        int64_t n, const float *norms, const double *norms64, int64_t fused,  \
        const double *cross, const double *c_sq, const int64_t *offsets,      \
        int64_t n_cells, int64_t nprobe, int64_t need, const int64_t *ids,    \
        int64_t k_scan, int64_t k, int64_t rerank, double *out_values,        \
        int64_t *out_ids, int64_t *out_probe)                                 \
    {                                                                         \
        int64_t *ranges = malloc(sizeof(int64_t) * (2 * n_q + 1) * n_cells +  \
                                 sizeof(double) * n_cells);                   \
        if (!ranges)                                                          \
            return -2;                                                        \
        const int64_t width = probe_cells(cross, c_sq, offsets, n_q, n_cells, \
                                          nprobe, need, ranges, out_probe);   \
        const int64_t status = search_##C(                                    \
            lut, q_sq, n_q, m, k_words, c, cols, stride, n, norms, norms64,   \
            fused, ranges, width, 2 * n_cells, ids, k_scan, k, rerank,        \
            out_values, out_ids);                                             \
        free(ranges);                                                         \
        return status;                                                        \
    }

/*
 * The coarse probe of search_cells: NumPy's IVFIndex probe, query by query.
 * A cell's score is c_sq - 2.0 * cross, the NumPy expression's operations in
 * its order; the probe order is the stable argsort of the scores (ascending,
 * NaN last, ties by cell). A query probes its nprobe first cells, doubling
 * the count (up to n_cells) until they hold `need` rows. Only the cells it
 * probes are ordered: a max-heap keeps the best, then sorts them.
 */
static inline int cell_after(const double *score, int64_t a, int64_t b)
{
    const double x = score[a], y = score[b];
    if (x < y)
        return 0;
    if (x > y)
        return 1;
    if (x == y || (x != x && y != y))
        return a > b;
    return x != x; /* one NaN: it sorts last */
}

static void sift_cells(const double *score, int64_t *h, int64_t n, int64_t i)
{
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            return;
        if (c + 1 < n && cell_after(score, h[c + 1], h[c]))
            c++;
        if (!cell_after(score, h[c], h[i]))
            return;
        const int64_t t = h[i];
        h[i] = h[c], h[c] = t;
        i = c;
    }
}

/* The first w cells of the probe order into h, in order. */
static void first_cells(const double *score, int64_t n_cells, int64_t w,
                        int64_t *h)
{
    for (int64_t j = 0; j < w; j++)
        h[j] = j;
    for (int64_t i = w / 2 - 1; i >= 0; i--)
        sift_cells(score, h, w, i);
    for (int64_t j = w; j < n_cells; j++)
        if (cell_after(score, h[0], j)) {
            h[0] = j;
            sift_cells(score, h, w, 0);
        }
    for (int64_t end = w - 1; end > 0; end--) {
        const int64_t t = h[0];
        h[0] = h[end], h[end] = t;
        sift_cells(score, h, end, 0);
    }
}

/* Each query's probed cells as [lo, hi) ranges at a stride of 2 * n_cells in
 * `ranges` (which also holds n_cells cells and scores of scratch past them),
 * the ones past a query's own count empty; its cells and rows probed into
 * out_probe[q] and out_probe[n_q + q]. Returns the widest count. */
static int64_t probe_cells(const double *cross, const double *c_sq,
                           const int64_t *offsets, int64_t n_q,
                           int64_t n_cells, int64_t nprobe, int64_t need,
                           int64_t *ranges, int64_t *out_probe)
{
    int64_t *order = ranges + 2 * n_q * n_cells;
    double *score = (double *)(order + n_cells);
    int64_t width = 0;
    for (int64_t q = 0; q < n_q; q++) {
        const double *x = cross + q * n_cells;
        for (int64_t j = 0; j < n_cells; j++)
            score[j] = c_sq[j] - 2.0 * x[j];
        int64_t used = nprobe, held;
        for (;;) {
            first_cells(score, n_cells, used, order);
            held = 0;
            for (int64_t i = 0; i < used; i++)
                held += offsets[order[i] + 1] - offsets[order[i]];
            if (held >= need || used >= n_cells)
                break;
            used = 2 * used < n_cells ? 2 * used : n_cells;
        }
        int64_t *spans = ranges + 2 * q * n_cells;
        for (int64_t i = 0; i < used; i++) {
            spans[2 * i] = offsets[order[i]];
            spans[2 * i + 1] = offsets[order[i] + 1];
        }
        out_probe[q] = used, out_probe[n_q + q] = held;
        width = used > width ? used : width;
    }
    for (int64_t q = 0; q < n_q; q++)
        for (int64_t i = out_probe[q]; i < width; i++)
            ranges[2 * q * n_cells + 2 * i] = ranges[2 * q * n_cells + 2 * i + 1] = 0;
    return width;
}

DEFINE_HEAP(float, f32)
DEFINE_HEAP(double, f64)
DEFINE_SEARCH(uint8_t, u8)
DEFINE_SEARCH(uint16_t, u16)
DEFINE_SEARCH(uint32_t, u32)

/*
 * select_rows: the row-select pass of an index build, called once per
 * (codebook level, row block) right after that level's BLAS GEMM by
 * repro.retrieval.adc.encode_nearest, repro.core.dsq.DSQ._select_compiled and
 * repro.cluster.kmeans._nearest. For each of the n rows of the GEMM's (n, K)
 * output `cross` it
 *   1. forms every codeword's float64 score with the IEEE operations of the
 *      NumPy path, in its order (the forms below; no contraction), two
 *      codewords to a vector register, and tracks their extremum (minimum,
 *      or maximum for the DSQ forms) and whether any is NaN;
 *   2. picks NumPy's argmin / argmax in a second sweep over the row, still in
 *      L1: the first codeword whose score is NaN if one is, else the first
 *      whose score equals the extremum. Ties -- -0.0 against 0.0 included --
 *      keep the first codeword, +-inf are ordinary values, a NaN wins;
 *   3. updates the row's state from the chosen codeword: its code, its score
 *      (minima), the residual (target -= book[code]), the running decode
 *      (recon = 0 + book[code] at the first level, += after: NumPy's sum over
 *      the level axis, which starts from 0) and the next DSQ input
 *      (x = emb - recon).
 * A NULL pointer skips its part; scores, when given, receives the scores at a
 * row stride. No scratch and no static state: calls may run concurrently.
 * The vectors are GCC vector extensions: SSE2 registers on x86-64, whatever
 * the target has elsewhere, each lane rounding as the scalar operation does.
 */
enum { NEAREST, KMEANS, DSQ_L2, DSQ_DOT };

typedef double v2d __attribute__((vector_size(16)));
typedef int64_t v2l __attribute__((vector_size(16)));

static inline v2d load2(const double *p)
{
    v2d v;
    memcpy(&v, p, sizeof v);
    return v;
}

/* Codeword k's score in row c, per form: the NumPy path's passes on one
 * element, each operation rounding. SCORE2 is codewords k and k + 1. */
#define SCORE_FORM(FORM, C, COL, R)                                           \
    ((FORM) == NEAREST  ? (C) * -2.0 + (COL)       /* *= -2; += code_sq */    \
     : (FORM) == KMEANS ? (C) + (COL)              /* += c_sq */              \
     : (FORM) == DSQ_L2 ? ((C) * 2.0 - (R)) - (COL) /* *= 2; -= x_sq; -= c_sq */\
                        : (C))
#define SCORE1(FORM, k)                                                       \
    SCORE_FORM(FORM, c[k], (FORM) == DSQ_DOT ? 0.0 : col[k], r)
#define SCORE2(FORM, k)                                                       \
    SCORE_FORM(FORM, load2(c + (k)),                                          \
               (FORM) == DSQ_DOT ? ((v2d){0.0, 0.0}) : load2(col + (k)), r)

/* Lane-wise helpers: SSE2 instructions where the target has them, the same
 * results from plain vector operations elsewhere. Masks are all-ones lanes. */
#ifdef __SSE2__
#define MIN2(A, B) _mm_min_pd(A, B) /* A < B ? A : B: a NaN A keeps B */
#define MAX2(A, B) _mm_max_pd(A, B) /* A > B ? A : B */
#define UNORD2(A, B) _mm_cmpunord_pd(A, B) /* A or B is NaN */
#define EQ2(A, B) _mm_cmpeq_pd(A, B)
#define OR2(A, B) _mm_or_pd(A, B)
#define MASK2(M) _mm_movemask_pd(M) /* lane 0 -> bit 0, lane 1 -> bit 1 */
#else
static inline v2d pick2(v2l m, v2d a, v2d b)
{
    return (v2d)(((v2l)a & m) | ((v2l)b & ~m));
}
#define MIN2(A, B) pick2((A) < (B), A, B)
#define MAX2(A, B) pick2((A) > (B), A, B)
#define UNORD2(A, B) ((v2d)(((A) != (A)) | ((B) != (B))))
#define EQ2(A, B) ((v2d)((A) == (B)))
#define OR2(A, B) ((v2d)((v2l)(A) | (v2l)(B)))
#define MASK2(M) ((int)((((v2l)(M))[0] != 0) | ((((v2l)(M))[1] != 0) << 1)))
#endif

/* Row c's pick: pass 1 scores (writing them to out when given) and reduces
 * them to the extremum and a NaN mask; pass 2 finds the first NaN, or the
 * first occurrence of the extremum. */
static inline __attribute__((always_inline)) int64_t
pick_row(int64_t form, const double *c, int64_t k_words, const double *col,
         double r, double *out)
{
    const int max = form == DSQ_L2 || form == DSQ_DOT;
#define BEST2(A, B) (max ? MAX2(A, B) : MIN2(A, B))
    const double none = max ? -__builtin_inf() : __builtin_inf();
    v2d e0 = {none, none}, e1 = e0, e2 = e0, e3 = e0, nan = {0.0, 0.0};
    int64_t k = 0;
    for (; k + 8 <= k_words; k += 8) {
        const v2d s0 = SCORE2(form, k), s1 = SCORE2(form, k + 2);
        const v2d s2 = SCORE2(form, k + 4), s3 = SCORE2(form, k + 6);
        if (out) {
            memcpy(out + k, &s0, sizeof s0), memcpy(out + k + 2, &s1, sizeof s1);
            memcpy(out + k + 4, &s2, sizeof s2), memcpy(out + k + 6, &s3, sizeof s3);
        }
        e0 = BEST2(s0, e0), e1 = BEST2(s1, e1), e2 = BEST2(s2, e2), e3 = BEST2(s3, e3);
        nan = OR2(nan, OR2(UNORD2(s0, s1), UNORD2(s2, s3)));
    }
    for (; k + 2 <= k_words; k += 2) {
        const v2d s = SCORE2(form, k);
        if (out)
            memcpy(out + k, &s, sizeof s);
        e0 = BEST2(s, e0);
        nan = OR2(nan, UNORD2(s, s));
    }
    e0 = BEST2(BEST2(e0, e1), BEST2(e2, e3));
    double best = max ? (e0[1] > e0[0] ? e0[1] : e0[0])
                      : (e0[1] < e0[0] ? e0[1] : e0[0]);
    int any_nan = MASK2(nan) != 0;
    if (k < k_words) { /* odd K: the last codeword */
        const double v = SCORE1(form, k);
        if (out)
            out[k] = v;
        if (max ? v > best : v < best)
            best = v;
        any_nan |= v != v;
    }
#undef BEST2
    const v2d target = {best, best};
    for (k = 0; k + 2 <= k_words; k += 2) {
        const v2d s = SCORE2(form, k);
        const int hit = MASK2(any_nan ? UNORD2(s, s) : EQ2(s, target));
        if (hit)
            return k + !(hit & 1);
    }
    return k; /* odd K, and no earlier hit: the last codeword */
}

/* The row state the chosen codeword b moves on. */
static inline void update_row(const double *b, int64_t dim, int64_t i,
                              double *target, double *recon, int64_t first,
                              const double *emb, double *x)
{
    if (target) {
        double *t = target + i * dim;
        for (int64_t e = 0; e < dim; e++)
            t[e] -= b[e];
    }
    if (recon) {
        double *o = recon + i * dim;
        if (first)
            for (int64_t e = 0; e < dim; e++)
                o[e] = 0.0 + b[e];
        else
            for (int64_t e = 0; e < dim; e++)
                o[e] += b[e];
        if (x) {
            const double *u = emb + i * dim;
            double *y = x + i * dim;
            for (int64_t e = 0; e < dim; e++)
                y[e] = u[e] - o[e];
        }
    }
}

static inline __attribute__((always_inline)) void
select_form(int64_t form, const double *cross, int64_t n, int64_t k_words,
            const double *row, const double *col, double *scores,
            int64_t score_stride, int64_t *codes, int64_t code_stride,
            double *minima, const double *book, int64_t dim, double *target,
            double *recon, int64_t first, const double *emb, double *x)
{
    for (int64_t i = 0; i < n; i++) {
        const double *c = cross + i * k_words;
        const double r = row ? row[i] : 0;
        const int64_t code = pick_row(form, c, k_words, col, r,
                                      scores ? scores + i * score_stride : NULL);
        codes[i * code_stride] = code;
        if (minima)
            minima[i] = SCORE1(form, code);
        if (book)
            update_row(book + code * dim, dim, i, target, recon, first, emb, x);
    }
}

void select_rows(const double *cross, int64_t n, int64_t k_words,
                 int64_t form, const double *row, const double *col,
                 double *scores, int64_t score_stride, int64_t *codes,
                 int64_t code_stride, double *minima, const double *book,
                 int64_t dim, double *target, double *recon, int64_t first,
                 const double *emb, double *x)
{
#define SELECT(FORM)                                                          \
    select_form(FORM, cross, n, k_words, row, col, scores, score_stride,      \
                codes, code_stride, minima, book, dim, target, recon, first,  \
                emb, x)
    switch (form) {
    case NEAREST:
        SELECT(NEAREST);
        break;
    case KMEANS:
        SELECT(KMEANS);
        break;
    case DSQ_L2:
        SELECT(DSQ_L2);
        break;
    default:
        SELECT(DSQ_DOT);
    }
#undef SELECT
}

/*
 * decode_<code>: the row decode behind repro.retrieval.adc.reconstruct. Row i
 * of out is ((0.0 + C_0[c_0]) + C_1[c_1]) + ..., element by element: the
 * operations of NumPy's sum over the level axis of the gathered (rows, M, d)
 * block, which starts from +0.0 and adds the levels in order (for d >= 2; at
 * d = 1 NumPy sums the levels pairwise, so reconstruct keeps its NumPy path
 * there). No (rows, M, d) gather: a row is summed DECODE_LANES elements at a
 * time in vector registers across all M levels, then stored once (adding
 * into the output row level by level measured twice as slow: its loads and
 * stores, not its adds, set the pace). codes is (n, m) at element strides
 * (row_stride, col_stride), books the contiguous (m, k_words, dim)
 * codebooks, m >= 1. Returns -1 at the first code outside [0, k_words) --
 * reconstruct has refused those already; this keeps the reads in bounds for
 * any caller -- -2 when its m row offsets cannot be allocated, else 0.
 */
enum { DECODE_LANES = 16 };

/* Elements [e, e + width) of one row's decode, width a multiple of 2 up to
 * DECODE_LANES; level j's codeword row starts at books + at[j]. */
static inline __attribute__((always_inline)) void
decode_lanes(const double *books, const int64_t *at, int64_t m, int64_t e,
             int64_t width, double *o)
{
    v2d acc[DECODE_LANES / 2];
    for (int64_t l = 0; l < width / 2; l++)
        acc[l] = (v2d){0.0, 0.0} + load2(books + at[0] + e + 2 * l);
    for (int64_t j = 1; j < m; j++)
        for (int64_t l = 0; l < width / 2; l++)
            acc[l] += load2(books + at[j] + e + 2 * l);
    memcpy(o + e, acc, sizeof(double) * width);
}

#define DEFINE_DECODE(CODE, C)                                                \
    int64_t decode_##C(const CODE *codes, int64_t n, int64_t m,               \
                       int64_t row_stride, int64_t col_stride,                \
                       const double *books, int64_t k_words, int64_t dim,     \
                       double *out)                                           \
    {                                                                         \
        int64_t *at = malloc(sizeof(int64_t) * m);                            \
        if (!at)                                                              \
            return -2;                                                        \
        for (int64_t i = 0; i < n; i++) {                                     \
            const CODE *c = codes + i * row_stride;                           \
            double *o = out + i * dim;                                        \
            for (int64_t j = 0; j < m; j++) {                                 \
                const int64_t code = c[j * col_stride];                       \
                if (code >= k_words) {                                        \
                    free(at);                                                 \
                    return -1;                                                \
                }                                                             \
                at[j] = (j * k_words + code) * dim;                           \
            }                                                                 \
            int64_t e = 0;                                                    \
            for (; e + DECODE_LANES <= dim; e += DECODE_LANES)                \
                decode_lanes(books, at, m, e, DECODE_LANES, o);               \
            if (dim - e >= 2)                                                 \
                decode_lanes(books, at, m, e, (dim - e) & ~1, o);             \
            if (dim & 1) {                                                    \
                double v = 0.0 + books[at[0] + dim - 1];                      \
                for (int64_t j = 1; j < m; j++)                               \
                    v += books[at[j] + dim - 1];                              \
                o[dim - 1] = v;                                               \
            }                                                                 \
        }                                                                     \
        free(at);                                                             \
        return 0;                                                             \
    }

DEFINE_DECODE(uint8_t, u8)
DEFINE_DECODE(uint16_t, u16)
DEFINE_DECODE(uint32_t, u32)

/*
 * cluster_sums: the update step's sums behind
 * repro.cluster.kmeans._cluster_sums. The n rows (dim wide, at an element
 * row stride) are walked in chunks of `chunk` rows. Within a chunk each row
 * is added, in row order, into its cluster's partial sum, which starts at
 * +0.0 (partial = 0.0 + row at the cluster's first row); at the chunk's end
 * every cluster present adds its partial into sums and its row count into
 * counts. That is the NumPy path's arithmetic -- a stable sort of the chunk
 * by cluster, then per cluster sums += slice.sum(axis=0), whose reduction
 * starts from +0.0 and adds rows in order for dim >= 2 -- without the sort
 * or the gathered copy. partial (k, dim) and sizes (k, zeroed) are the
 * caller's scratch; sums and counts are accumulated into. Returns -1 at the
 * first assignment outside [0, k), else 0.
 */
int64_t cluster_sums(const double *points, int64_t n, int64_t dim,
                     int64_t row_stride, const int64_t *assign, int64_t k,
                     int64_t chunk, double *restrict sums,
                     int64_t *restrict counts, double *restrict partial,
                     int64_t *restrict sizes)
{
    for (int64_t lo = 0; lo < n; lo += chunk) {
        const int64_t hi = n - lo < chunk ? n : lo + chunk;
        for (int64_t i = lo; i < hi; i++) {
            const int64_t a = assign[i];
            if (a < 0 || a >= k)
                return -1;
            const double *restrict x = points + i * row_stride;
            double *restrict p = partial + a * dim;
            if (sizes[a]++ == 0)
                for (int64_t e = 0; e < dim; e++)
                    p[e] = 0.0 + x[e];
            else
                for (int64_t e = 0; e < dim; e++)
                    p[e] += x[e];
        }
        for (int64_t c = 0; c < k; c++) {
            if (!sizes[c])
                continue;
            double *restrict s = sums + c * dim;
            const double *restrict p = partial + c * dim;
            for (int64_t e = 0; e < dim; e++)
                s[e] += p[e];
            counts[c] += sizes[c];
            sizes[c] = 0;
        }
    }
    return 0;
}
