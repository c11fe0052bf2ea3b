/* quatlink's C kernels, built into one library by quatlink.kernels:
   qlms_batch, the batched QLMS kernel behind quatlink.adaptive.run_qlms_batch;
   mimo_fir, the MIMO FIR behind quatlink.channel.mimo_convolve; and
   block_moments, the sample statistics R and p of
   quatlink.wiener.estimate_statistics, moments, covariance recursion and
   quaternion fold (`fold`, which states the fold's signs) included.  The
   docstrings of the first two and the comments on block_moments and fold state
   their inputs and the fixed order of their arithmetic, which the build keeps
   by allowing no contraction.  A helper that a target_clones function calls is
   always_inline, so that it is compiled for the clone's target and not for
   the baseline one.

   qlms_batch and block_moments take lanes in groups of LANES with the lane
   index innermost in every buffer, so each step runs across a group's lanes
   in SIMD registers, and share one window (`fill`).  It holds a group's
   samples of length-1 + SPAN time steps newest first, in (position, stream,
   component, lane) order: after the fill of the SPAN steps from t0, position
   p holds time t0 + SPAN-1 - p, so the regressor of time t, tap k = (lag,
   stream), is quaternion (t0 + SPAN-1 - t)*C + k and contiguous.  A last
   group short of LANES lanes fills the rest with copies of its last lane,
   which never write an output. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define LANES 8
#define QUAT (4 * LANES) /* doubles of one quaternion across a group */

#if defined(__x86_64__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONES
#endif

#define SPAN 16 /* time steps per window fill */

/* Fills a group's window with the `count` (at most SPAN) steps of each lane's
   source from step `from`, behind the `keep` older steps it moves up.  Lane j
   reads stream c of step t at source[j] + c*stream_stride + 4*t, in doubles. */
static inline __attribute__((always_inline)) void fill(double *window, const double *const source[LANES],
                                                       int64_t stream_stride, int64_t streams, int64_t keep,
                                                       int64_t from, int64_t count)
{
    const int64_t stride = streams * QUAT; /* doubles per window position */
    memmove(window + SPAN * stride, window, keep * stride * sizeof(double));
    for (int64_t i = 0; i < count; i++)
        for (int64_t c = 0; c < streams; c++)
            for (int k = 0; k < 4; k++)
                for (int j = 0; j < LANES; j++)
                    window[((SPAN - 1 - i) * streams + c) * QUAT + k * LANES + j] =
                        source[j][c * stream_stride + (from + i) * 4 + k];
}

/* Returns 0, or -1 if the group's buffers cannot be allocated.  Stream c of
   run r is the n contiguous quaternions at received + r*run_stride +
   c*stream_stride, the strides in doubles.  `indices` are int64 if `wide`,
   else int8; `weights` is (lanes, streams*length, 4) in [stream 0 lags,
   stream 1 lags, ...] order, and `traces` (lanes, n) and `diverged_at`
   (lanes,) arrive filled with NaN and -1. */
CLONES int qlms_batch(const double *received, int64_t run_stride, int64_t stream_stride, const void *indices,
                      int wide, const double *symbols, int64_t runs, int64_t streams, int64_t n, int64_t lanes,
                      int64_t length, double mu, int64_t delay, double limit,
                      double *weights, double *traces, int64_t *diverged_at)
{
    const int64_t per_run = lanes / runs, taps = length * streams;
    const int64_t stride = streams * QUAT; /* doubles per window position */
    const int64_t span = (length - 1 + SPAN) * stride;
    double *buffer = aligned_alloc(64, (span + 2 * taps * QUAT + SPAN * QUAT) * sizeof(double));
    if (!buffer)
        return -1;
    double *window = buffer, *targets = window + span;
    double *w = targets + SPAN * QUAT, *updated = w + taps * QUAT;

    for (int64_t first = 0; first < lanes; first += LANES) {
        const double *run[LANES]; /* each lane's run of `received` */
        int64_t lane[LANES], active[LANES], count = 0;
        for (int j = 0; j < LANES; j++) {
            active[j] = first + j < lanes;
            lane[j] = active[j] ? first + j : lanes - 1;
            run[j] = received + lane[j] / per_run * run_stride;
            count += active[j];
        }
        memset(window, 0, span * sizeof(double));
        memset(w, 0, taps * QUAT * sizeof(double));

        for (int64_t t0 = 0; t0 < n && count; t0 += SPAN) {
            const int64_t stop = t0 + SPAN < n ? t0 + SPAN : n;
            fill(window, run, stream_stride, streams, length - 1, t0, stop - t0);
            const int64_t begin = delay > t0 ? delay : t0;
            for (int64_t t = begin; t < stop; t++) {
                double *target = targets + (t - t0) * QUAT;
                for (int j = 0; j < LANES; j++) {
                    const int64_t at = lane[j] * n + t - delay;
                    const int64_t row = wide ? ((const int64_t *)indices)[at] : ((const int8_t *)indices)[at];
                    for (int i = 0; i < 4; i++)
                        target[i * LANES + j] = symbols[row * 4 + i];
                }
            }

            for (int64_t t = begin; t < stop && count; t++) {
                const double *x = window + (SPAN - 1 - (t - t0)) * stride;
                const double *r = targets + (t - t0) * QUAT;
                double y0[LANES] = {0}, y1[LANES] = {0}, y2[LANES] = {0}, y3[LANES] = {0};
                for (int64_t k = 0; k < taps; k++) {
                    const double *a = w + k * QUAT, *b = x + k * QUAT;
                    for (int j = 0; j < LANES; j++) {
                        const double a0 = a[j], a1 = a[LANES + j], a2 = a[2 * LANES + j], a3 = a[3 * LANES + j];
                        const double b0 = b[j], b1 = b[LANES + j], b2 = b[2 * LANES + j], b3 = b[3 * LANES + j];
                        y0[j] = y0[j] + (((a0 * b0 - a1 * b1) - a2 * b2) - a3 * b3);
                        y1[j] = y1[j] + (((a0 * b1 + a1 * b0) + a2 * b3) - a3 * b2);
                        y2[j] = y2[j] + (((a0 * b2 - a1 * b3) + a2 * b0) + a3 * b1);
                        y3[j] = y3[j] + (((a0 * b3 + a1 * b2) - a2 * b1) + a3 * b0);
                    }
                }
                double e0[LANES], e1[LANES], e2[LANES], e3[LANES], err[LANES], finite[LANES];
                for (int j = 0; j < LANES; j++) {
                    e0[j] = r[j] - y0[j];
                    e1[j] = r[LANES + j] - y1[j];
                    e2[j] = r[2 * LANES + j] - y2[j];
                    e3[j] = r[3 * LANES + j] - y3[j];
                    err[j] = ((e0[j] * e0[j] + e1[j] * e1[j]) + e2[j] * e2[j]) + e3[j] * e3[j];
                    finite[j] = 0.0;
                }
                for (int64_t k = 0; k < taps; k++) {
                    const double *a = w + k * QUAT, *b = x + k * QUAT;
                    double *u = updated + k * QUAT;
                    for (int j = 0; j < LANES; j++) {
                        /* g = e*conj(x), conj(x) = (b0, c1, c2, c3) */
                        const double b0 = b[j], c1 = -b[LANES + j], c2 = -b[2 * LANES + j], c3 = -b[3 * LANES + j];
                        const double g0 = ((e0[j] * b0 - e1[j] * c1) - e2[j] * c2) - e3[j] * c3;
                        const double g1 = ((e0[j] * c1 + e1[j] * b0) + e2[j] * c3) - e3[j] * c2;
                        const double g2 = ((e0[j] * c2 - e1[j] * c3) + e2[j] * b0) + e3[j] * c1;
                        const double g3 = ((e0[j] * c3 + e1[j] * c2) - e2[j] * c1) + e3[j] * b0;
                        const double u0 = a[j] + mu * g0, u1 = a[LANES + j] + mu * g1;
                        const double u2 = a[2 * LANES + j] + mu * g2, u3 = a[3 * LANES + j] + mu * g3;
                        u[j] = u0;
                        u[LANES + j] = u1;
                        u[2 * LANES + j] = u2;
                        u[3 * LANES + j] = u3;
                        /* v - v is 0 for a finite v and NaN otherwise */
                        finite[j] = finite[j] + ((((u0 - u0) + (u1 - u1)) + (u2 - u2)) + (u3 - u3));
                    }
                }
                for (int j = 0; j < LANES; j++) {
                    if (!active[j])
                        continue;
                    traces[(first + j) * n + t] = err[j];
                    /* `<=` is false for a NaN error, so it freezes too */
                    if (!(err[j] <= limit) || finite[j] != 0.0) {
                        diverged_at[first + j] = t;
                        active[j] = 0;
                        count--;
                    }
                }
                if (count == LANES) {
                    double *spent = w;
                    w = updated;
                    updated = spent;
                } else {
                    /* a select, so a frozen lane keeps the weights it used at its last step */
                    for (int64_t i = 0; i < taps * 4; i++)
                        for (int j = 0; j < LANES; j++)
                            w[i * LANES + j] = active[j] ? updated[i * LANES + j] : w[i * LANES + j];
                }
            }
        }

        for (int j = 0; j < LANES && first + j < lanes; j++)
            for (int64_t l = 0; l < length; l++)
                for (int64_t c = 0; c < streams; c++)
                    for (int i = 0; i < 4; i++)
                        weights[(((first + j) * streams + c) * length + l) * 4 + i] =
                            w[((l * streams + c) * 4 + i) * LANES + j];
    }
    free(buffer);
    return 0;
}

/* Returns 0, or -1 if the stream partial cannot be allocated.  Stream c of
   run r is the n contiguous quaternions at signals + r*run_stride +
   c*stream_stride, the strides in doubles; `grid` is (runs, outputs,
   streams, length, 4) and `out` (runs, outputs, n, 4), both contiguous.
   Taps go outer and time inner, so the inner loop runs along one output row
   and vectorises over time. */
CLONES int mimo_fir(const double *signals, int64_t run_stride, int64_t stream_stride, const double *grid,
                    int64_t runs, int64_t outputs, int64_t streams, int64_t length, int64_t n, double *out)
{
    double *partial = NULL;
    if (streams > 1 && !(partial = malloc(n * 4 * sizeof(double))))
        return -1;
    for (int64_t r = 0; r < runs; r++)
        for (int64_t s = 0; s < outputs; s++) {
            double *row = out + (r * outputs + s) * n * 4;
            for (int64_t c = 0; c < streams; c++) {
                const double *restrict x = signals + r * run_stride + c * stream_stride;
                const double *taps = grid + ((r * outputs + s) * streams + c) * length * 4;
                /* stream 0 sums into the output row, every later one into the partial added to it */
                double *restrict o = c ? partial : row;
                memset(o, 0, n * 4 * sizeof(double));
                for (int64_t m = 0; m < length && m < n; m++) {
                    const double *a = taps + m * 4;
                    /* L(a), with a*b = L(a) b: row k holds the factors of b0..b3 in component k of quat.mul */
                    const double L[4][4] = {{a[0], -a[1], -a[2], -a[3]},
                                            {a[1], a[0], -a[3], a[2]},
                                            {a[2], a[3], a[0], -a[1]},
                                            {a[3], -a[2], a[1], a[0]}};
                    for (int64_t t = m; t < n; t++) {
                        const double *b = x + (t - m) * 4;
                        for (int k = 0; k < 4; k++)
                            o[t * 4 + k] = o[t * 4 + k] + (((L[k][0] * b[0] + L[k][1] * b[1]) + L[k][2] * b[2]) +
                                                           L[k][3] * b[3]);
                    }
                }
                if (c)
                    for (int64_t i = 0; i < n * 4; i++)
                        row[i] = row[i] + partial[i];
            }
        }
    free(partial);
    return 0;
}

/* sums[a*4 + b] += x[a] * y[b] at each of `count` time steps, for a 4x4 block
   of sums across a group's lanes; x and y advance by their steps. */
static inline __attribute__((always_inline)) void accumulate(double *restrict sums, const double *x, int64_t x_step,
                                                             const double *y, int64_t y_step, int64_t count)
{
    double s[16][LANES];
    for (int k = 0; k < 16; k++)
        for (int j = 0; j < LANES; j++)
            s[k][j] = sums[k * LANES + j];
    for (int64_t t = 0; t < count; t++) {
        const double *a = x + t * x_step, *b = y + t * y_step;
        for (int u = 0; u < 4; u++)
            for (int v = 0; v < 4; v++)
                for (int j = 0; j < LANES; j++)
                    s[u * 4 + v][j] = s[u * 4 + v][j] + a[u * LANES + j] * b[v * LANES + j];
    }
    for (int k = 0; k < 16; k++)
        for (int j = 0; j < LANES; j++)
            sums[k * LANES + j] = s[k][j];
}

/* Writes the `entries` quaternions sum a*conj(b) / count of lane j to `out`, from
   4x4 blocks of real sums m[u][v] = sum a[u] b[v] in (u, v, lane) order.
   Component i is (((S[i][0] m[i][0] + S[i][1] m[i^1][1]) + S[i][2] m[i^2][2]) +
   S[i][3] m[i^3][3]) / count, where S[i][v] is component i of E[i^v] *
   conj(E[v]) for the basis units E = (1, i, j, k) under quat.mul. */
static inline __attribute__((always_inline)) void fold(const double *sums, int j, int64_t entries, double count,
                                                       double *out)
{
    static const double sign[4][4] = {{1, 1, 1, 1}, {1, -1, 1, -1}, {1, -1, -1, 1}, {1, 1, -1, -1}};
    for (int64_t e = 0; e < entries; e++) {
        const double *m = sums + e * 16 * LANES + j;
        for (int i = 0; i < 4; i++) {
            double q = sign[i][0] * m[i * 4 * LANES];
            for (int v = 1; v < 4; v++)
                q = q + sign[i][v] * m[((i ^ v) * 4 + v) * LANES];
            out[e * 4 + i] = q / count;
        }
    }
}

/* Returns 0, or -1 if the group's buffers cannot be allocated.  Stream c of
   run r is the n contiguous quaternions at signals + r*run_stride +
   c*stream_stride, and run r's reference the n - delay contiguous
   quaternions at references + r*reference_stride, the strides in doubles.
   Writes the sample statistics over t in [delay, n) of the covariance method:
   `autocorrelation` (runs, streams*length, streams*length, 4) and `cross`
   (runs, streams*length, 4), both contiguous and laid out [stream 0 lags,
   stream 1 lags, ...].  With x_l of stream c at t the sample c[t - l], zero
   before the start, they come from the real moments M[c, k][a, c', l][b] =
   sum_t x_k of c [a] * x_l of c' [b] and P[c, l][a, b] = sum_t x_l of c [a] *
   references[t - delay][b].  The first block row M[c, 0] and P are sums that
   start at +0.0 and add t = delay, delay + 1, ... in turn; the references of
   a span's steps fill a window of their own, with no older steps kept.  Then
   one block row of M at a time, in place: the first column is the transposed
   first row, M[c, k][a, c', 0][b] = M[c', 0][b, c, k][a], and for l >= 1
   M[c, k][a, c', l][b] = M[c, k-1][a, c', l-1][b] +
   (h_c[k-1][a] h_c'[l-1][b] - t_c[k-1][a] t_c'[l-1][b]), with h_c[i] the
   sample delay-1-i and t_c[i] the sample n-1-i of stream c, +0.0 before the
   start: a lag pair's sum gains one sample and loses another when both lags
   grow by one.  Each 4x4 block, folded into a quaternion and divided by
   n - delay (`fold`), is an entry of R; P's blocks give p the same way. */
CLONES int block_moments(const double *signals, int64_t run_stride, int64_t stream_stride,
                         const double *references, int64_t reference_stride, int64_t runs, int64_t streams,
                         int64_t length, int64_t n, int64_t delay, double *autocorrelation, double *cross)
{
    const int64_t stride = streams * QUAT; /* doubles per window position */
    const int64_t width = streams * length; /* quaternions per row of R */
    const int64_t pairs = streams * width, blocks = pairs + width; /* 4x4 blocks of sums */
    const int64_t span = (length - 1 + SPAN) * stride + blocks * 16 * LANES; /* the window and the sums */
    const int64_t edges = (length - 1) * stride; /* doubles of the head samples, and of the tail's */
    double *window = aligned_alloc(64, (span + SPAN * QUAT + pairs * 16 * LANES + 2 * edges) * sizeof(double));
    if (!window)
        return -1;
    /* the sums of the first row's blocks (c, c', l) and then of P's (c, l), each in (a, b, run) order; then
       the block row of M that the recursion steps, in the same order, and the head and tail samples in
       (stream, k, component, run) order */
    double *sums = window + (length - 1 + SPAN) * stride, *targets = window + span;
    double *row = targets + SPAN * QUAT, *head = row + pairs * 16 * LANES, *tail = head + edges;
    const double count = (double)(n - delay);

    for (int64_t group = 0; group < runs; group += LANES) {
        const double *run[LANES], *reference[LANES];
        for (int j = 0; j < LANES; j++) {
            const int64_t r = group + j < runs ? group + j : runs - 1;
            run[j] = signals + r * run_stride;
            reference[j] = references + r * reference_stride;
        }
        memset(window, 0, span * sizeof(double));

        for (int64_t t0 = 0; t0 < n; t0 += SPAN) {
            const int64_t stop = t0 + SPAN < n ? t0 + SPAN : n, begin = delay > t0 ? delay : t0;
            fill(window, run, stream_stride, streams, length - 1, t0, stop - t0);
            if (begin >= stop)
                continue;
            fill(targets, reference, 0, 1, 0, begin - delay, stop - begin);
            /* time `begin`, in both windows; each later step is a position back */
            const double *now = window + (SPAN - 1 - (begin - t0)) * stride;
            for (int64_t b = 0; b < blocks; b++) {
                /* x_0 of c with x_l of c', or x_l of c with the references */
                const int64_t pair = b < pairs, l = b % length;
                const int64_t c = pair ? b / width : (b - pairs) / length;
                const double *x = pair ? now + c * QUAT : now + l * stride + c * QUAT;
                const double *y = pair ? now + l * stride + b / length % streams * QUAT : targets + (SPAN - 1) * QUAT;
                accumulate(sums + b * 16 * LANES, x, -stride, y, pair ? -stride : -QUAT, stop - begin);
            }
        }

        for (int64_t c = 0; c < streams; c++)
            for (int64_t k = 0; k < length - 1; k++)
                for (int a = 0; a < 4; a++)
                    for (int j = 0; j < LANES; j++) {
                        const double *s = run[j] + c * stream_stride + a;
                        const int64_t at = ((c * (length - 1) + k) * 4 + a) * LANES + j;
                        head[at] = delay - 1 - k >= 0 ? s[(delay - 1 - k) * 4] : 0.0;
                        tail[at] = n - 1 - k >= 0 ? s[(n - 1 - k) * 4] : 0.0;
                    }
        memcpy(row, sums, pairs * 16 * LANES * sizeof(double));
        for (int64_t k = 0; k < length; k++) {
            for (int64_t c = 0; c < streams && k; c++) /* row 0 is the first row's sums */
                for (int64_t d = 0; d < streams; d++) { /* d = c' */
                    double *block = row + (c * width + d * length) * 16 * LANES; /* (l, a, b, run) */
                    const double *hk = head + (c * (length - 1) + k - 1) * QUAT;
                    const double *tk = tail + (c * (length - 1) + k - 1) * QUAT;
                    /* l descending, so each step reads column l - 1 of row k - 1 */
                    for (int64_t l = length - 1; l > 0; l--) {
                        const double *hl = head + (d * (length - 1) + l - 1) * QUAT;
                        const double *tl = tail + (d * (length - 1) + l - 1) * QUAT;
                        for (int a = 0; a < 4; a++)
                            for (int b = 0; b < 4; b++)
                                for (int j = 0; j < LANES; j++)
                                    block[(l * 16 + a * 4 + b) * LANES + j] =
                                        block[((l - 1) * 16 + a * 4 + b) * LANES + j] +
                                        (hk[a * LANES + j] * hl[b * LANES + j] - tk[a * LANES + j] * tl[b * LANES + j]);
                    }
                    const double *mirror = sums + (d * width + c * length + k) * 16 * LANES;
                    for (int a = 0; a < 4; a++)
                        for (int b = 0; b < 4; b++)
                            for (int j = 0; j < LANES; j++)
                                block[(a * 4 + b) * LANES + j] = mirror[(b * 4 + a) * LANES + j];
                }
            for (int j = 0; j < LANES && group + j < runs; j++)
                for (int64_t c = 0; c < streams; c++)
                    fold(row + c * width * 16 * LANES, j, width, count,
                         autocorrelation + ((group + j) * width + c * length + k) * width * 4);
        }
        for (int j = 0; j < LANES && group + j < runs; j++)
            fold(sums + pairs * 16 * LANES, j, width, count, cross + (group + j) * width * 4);
    }
    free(window);
    return 0;
}
