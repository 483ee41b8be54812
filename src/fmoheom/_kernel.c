/* Compiled passes of the HEOM integrator in fmoheom/heom.py, the one
 * statement of how each is evaluated. Each function takes the node count
 * first. Every array is C-contiguous and checked or made by the caller;
 * nothing is allocated here.
 *
 * heom_rhs evaluates the right-hand side of the real hierarchy state Q
 * (count nodes of 7 x 7 doubles, row-major) in one pass over the nodes.
 * For each node it forms Y = Q - i Q^T = (1 - i) zeta in registers,
 * evaluates P' = (1 - i) P = Y X + R' Y and writes the derivative
 * dQ = Re P' - (Im P')^T once, as d zeta = P + P^dagger. Row k of R' Y is
 * the three terms of P for site k, n_k (b + i a), -gamma |n| / 2 and i
 * times row k of Y of the down neighbour n - e_k (when n_k > 0), of n, and
 * of the up neighbour n + e_k (when within the truncation), with a, b and
 * gamma the bath coefficients of heom.py. Row k of Y of a node is row k and
 * column k of its Q. The damping, the diagonal of R', acts on Y as the
 * trap rates in X do, so one rate vector r + gamma |n| / 2 applies both
 * and only the two neighbours are gathered. A row of 7 doubles is held as
 * one 8-double vector with a zero eighth lane, so every product is a
 * broadcast times a vector.
 *
 * heom_step finishes a Dormand-Prince step written as a polynomial in h L
 * (heom.py), from the chain w_i = L^i y, i = 1..7, that the caller has
 * formed with heom_rhs, and the weights of h^i w_i, which the caller has
 * scaled by h^i. In one pass over the nodes it returns the RMS norm of the
 * error estimate and writes y_new and f(y_new), whether or not the caller
 * then accepts the step; the comment above it gives the reads, the writes
 * and the norm.
 *
 * hierarchy_tables is not an integrator pass: it writes the hierarchy t
 * that heom_rhs reads, for any site count, in one pass over the nodes
 * (fmoheom/hierarchy.py; the comment above it gives the ranks): one int32
 * block of three count x K planes, n, down and up, each node's multi-index
 * and its neighbours' ranks along each site, -1 for none.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define N 7    /* sites: a node is N x N */
#define NN (N * N)
#define STEPS 7  /* w_1..w_7 of a Dormand-Prince step, s[1..7] of heom_step */

/* The site count that heom_rhs reads, for fmoheom/kernel.py. */
const long heom_sites = N;

typedef double v8 __attribute__((vector_size(64)));

/* Row p[0..6], the eighth lane zero. */
static inline v8 row(const double *p)
{
    return (v8){p[0], p[1], p[2], p[3], p[4], p[5], p[6], 0.0};
}

/* Column p[0], p[N], ..., p[6 N], the eighth lane zero. */
static inline v8 col(const double *p)
{
    return (v8){p[0], p[N], p[2 * N], p[3 * N], p[4 * N], p[5 * N], p[6 * N], 0.0};
}

/* P'_k += (dr + i di) times row k of Y of the node at qn. */
static inline void couple(const double *qn, int k, double dr, double di, v8 *pr,
                          v8 *pi)
{
    v8 u = row(qn + k * N), w = col(qn + k);
    *pr += dr * u + di * w;
    *pi += di * u - dr * w;
}

/* h is Im X = H^T and r the trap rate of each site, so that X = i h - diag(r);
 * t is the hierarchy, the planes n, down and up of count x N. */
void heom_rhs(long count, const double *h, const double *r, const int32_t *t,
              double a, double b, double gamma, const double *q, double *out)
{
    const int32_t *n = t, *down = n + count * N, *up = down + count * N;
    v8 hl[N], r8 = row(r);
    for (int l = 0; l < N; l++)
        hl[l] = row(h + l * N);
    for (long c = 0; c < count; c++) {
        const double *qc = q + c * NN;
        const int32_t *nc = n + c * N, *dc = down + c * N, *uc = up + c * N;
        double depth = 0.0;
        for (int k = 0; k < N; k++)
            depth += (double)nc[k];
        v8 rate = r8 + 0.5 * gamma * depth, pr[N], pi[N];
        /* P' = Y X - gamma |n| / 2 Y = Y (i h - diag(rate)) with Y = Q - i Q^T:
         * row j of Y is row j of Q minus i times column j, so Re P'_j = sum_l
         * Q_lj h_l - rate (.) row j of Q and Im P'_j = sum_l Q_jl h_l + rate
         * (.) column j. */
        for (int j = 0; j < N; j++) {
            v8 sr = qc[j] * hl[0], si = qc[j * N] * hl[0];
            for (int l = 1; l < N; l++) {
                sr += qc[l * N + j] * hl[l];
                si += qc[j * N + l] * hl[l];
            }
            pr[j] = sr - row(qc + j * N) * rate;
            pi[j] = si + col(qc + j) * rate;
        }
        /* P' += the off-diagonal part of R' Y: down and up neighbours.
         * Unrolled, every table and row offset is a constant: int32 ranks
         * would otherwise take an index register of their own, and a
         * spill, for about 2 % more time per node. */
#pragma GCC unroll 7
        for (int k = 0; k < N; k++) {
            if (dc[k] >= 0)
                couple(q + (long)dc[k] * NN, k, (double)nc[k] * b,
                       (double)nc[k] * a, &pr[k], &pi[k]);
            if (uc[k] >= 0)
                couple(q + (long)uc[k] * NN, k, 0.0, 1.0, &pr[k], &pi[k]);
        }
        /* dQ = Re P' - (Im P')^T, entry by entry: a vector store of the
         * 7-double rows would go through the stack. */
        double *oc = out + c * NN;
        for (int j = 0; j < N; j++)
            for (int l = 0; l < N; l++)
                oc[j * N + l] = pr[j][l] - pi[l][j];
    }
}

/* RMS over every entry of every node of err / scale, with the error
 * estimate err = sum_{i=1..7} e_i h^i w_i and scale = atol + rtol
 * max(|zeta_ij|, |zeta_new_ij|), where |zeta_ij| = sqrt((Q_ij^2 + Q_ji^2) / 2)
 * is the modulus of the complex entry that Q stores. That is RK45's norm on
 * the complex state, so the step sequence is that of RK45 on zeta.
 * |zeta_ij| = |zeta_ji|, so one square root and one division serve the
 * pair i <= j. The squares are stored before a pair adds them, so no fused
 * multiply-add makes the sum depend on the order of the pair, and the two
 * entries of a pair in the RMS sum are added first: Q^T, that is zeta*, has
 * the norm of Q bit for bit. s holds the addresses of y, w_1..w_7, and
 * weights the six c_i h^i, then the seven e_i h^i. Each entry is read from
 * all eight buffers, then y_new = y + sum_{i=1..6} c_i h^i w_i is written
 * into s[7] and f(y_new) = w_1 + sum_{i=1..6} c_i h^i w_{i+1} into s[6]. */
double heom_step(long count, const double *weights, double atol, double rtol,
                 double *const s[STEPS + 1])
{
    /* Local copies, not reloaded after each node's stores into s[6], s[7]. */
    double ch[STEPS - 1], eh[STEPS], sum[NN] = {0.0}, total = 0.0;
    double factor = rtol / sqrt(2.0);
    memcpy(ch, weights, sizeof ch);
    memcpy(eh, weights + STEPS - 1, sizeof eh);
    for (long node = 0; node < count; node++) {
        long o = node * NN;
        double err[NN], sq[NN], sq_new[NN], inv[NN];
        /* The eight buffers do not overlap, so entry i reads and writes
         * only entry i of each and the entries vectorize. Each sum takes
         * its terms in registers, in the order written. */
#pragma GCC ivdep
        for (int i = 0; i < NN; i++) {
            double y = s[0][o + i], yn = y, f = s[1][o + i];
            double e = eh[STEPS - 1] * s[STEPS][o + i];
            for (int j = 0; j < STEPS - 1; j++) {
                double wj = s[j + 1][o + i];
                yn += ch[j] * wj;
                f += ch[j] * s[j + 2][o + i];
                e += eh[j] * wj;
            }
            err[i] = e;
            sq[i] = y * y;
            sq_new[i] = yn * yn;
            s[7][o + i] = yn;
            s[6][o + i] = f;
        }
        for (int i = 0; i < N; i++) /* one scale per pair */
            for (int j = i; j < N; j++) {
                double m = fmax(sq[i * N + j] + sq[j * N + i],
                                sq_new[i * N + j] + sq_new[j * N + i]);
                inv[i * N + j] = inv[j * N + i] = 1.0 / (sqrt(m) * factor + atol);
            }
        for (int i = 0; i < NN; i++) {
            double r = err[i] * inv[i];
            sum[i] += r * r;
        }
    }
    for (int i = 0; i < N; i++) {
        total += sum[i * N + i];
        for (int j = i + 1; j < N; j++)
            total += sum[i * N + j] + sum[j * N + i];
    }
    return sqrt(total / (double)(count * NN));
}

/* The multi-indices n of sum <= depth over K = sites sites in graded
 * lexicographic order, into the count = C(depth + K, K) rows of plane n of
 * t, with their neighbours' ranks into planes down and up (-1 for none);
 * binom, K x (depth + 1) int64, is workspace. The caller bounds count, so
 * every rank and entry fits int32, and the ranks are formed in int64 and
 * cast on store. Row c of n follows row c - 1: one unit of the last
 * nonzero n_p moves to n_{p-1} and the rest of it to n_K, or, after
 * (d, 0, ..., 0), depth d + 1 starts at (0, ..., 0, d + 1). With the
 * suffix sums s_j = n_j + ... + n_K (1-based), rank(n) = C(s_1 + K, K) - 1
 * - sum_{j=2..K} C(s_j + K - j, K - j + 1) (Knuth, TAOCP 4A, 7.2.1.3), so
 * a node of rank c has the neighbour ranks
 *   rank(n - e_k) = c - C(s_1 + K - 1, K - 1)
 *                   + sum_{j=2..k} C(s_j + K - j - 1, K - j)   if n_k > 0,
 *   rank(n + e_k) = c + C(s_1 + K, K - 1)
 *                   - sum_{j=2..k} C(s_j + K - j, K - j)       if s_1 < depth.
 * Each binomial is C(i + m, m) with m < K and i <= depth, row m, column i
 * of binom, and at most C(depth + K - 1, K - 1) <= count. */
void hierarchy_tables(long count, long sites, long depth, int64_t *binom,
                      int32_t *t)
{
    int32_t *n = t, *down = n + count * sites, *up = down + count * sites;
    long w = depth + 1;
    if (sites == 0) /* one node, empty rows */
        return;
    for (long m = 0; m < sites; m++)
        for (long i = 0; i < w; i++)
            binom[m * w + i] = m && i ? binom[(m - 1) * w + i] + binom[m * w + i - 1] : 1;
    const int64_t *first = binom + (sites - 1) * w; /* C(i + K - 1, K - 1) */
    int64_t d = 0;
    memset(n, 0, sites * sizeof *n);
    for (long c = 0; c < count; c++) {
        int32_t *nc = n + c * sites, *dc = down + c * sites, *uc = up + c * sites;
        if (c > 0) {
            memcpy(nc, nc - sites, sites * sizeof *nc);
            long p = sites - 1;
            while (p >= 0 && nc[p] == 0)
                p--;
            if (p > 0) {
                int64_t v = nc[p];
                nc[p] = 0;
                nc[p - 1]++;
                nc[sites - 1] = (int32_t)(v - 1);
            } else { /* the root or (d, 0, ..., 0) */
                if (p == 0)
                    nc[0] = 0;
                nc[sites - 1] = (int32_t)++d;
            }
        }
        /* s is s_{k+1}; the sums run over j = 2..k+1 */
        int64_t s = d, sum_down = 0, sum_up = 0;
        for (long k = 0; k < sites; k++) {
            if (k > 0) {
                const int64_t *row = binom + (sites - 1 - k) * w;
                sum_up += row[s];
                if (s > 0) /* else no down neighbour from here on */
                    sum_down += row[s - 1];
            }
            dc[k] = (int32_t)(nc[k] > 0 ? c - first[d] + sum_down : -1);
            uc[k] = (int32_t)(d < depth ? c + first[d + 1] - sum_up : -1);
            s -= nc[k];
        }
    }
}
