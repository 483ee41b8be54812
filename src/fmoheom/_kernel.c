/* Compiled step kernel of the HEOM integrator in fmoheom/heom.py.
 *
 * heom_rhs evaluates the right-hand side of the real hierarchy state Q
 * (count nodes of 7 x 7 doubles, row-major) in one pass over the nodes.
 * For node c it forms Y = Q - i Q^T, computes P' = Y X + R' Y, where row k
 * of R' Y is n_k (a_re + i a_im), -gamma |n| / 2 and i times row k of Y of
 * the down neighbour c - e_k, of c and of the up neighbour c + e_k (row k
 * and column k of that node's Q), and writes dQ = Re P' - (Im P')^T. X =
 * i H^T - diag(r) is read as the real matrix H^T and the trap rates r. A
 * row of 7 doubles is held as one 8-double vector with a zero eighth lane,
 * so every product is a broadcast times a vector.
 *
 * heom_stage forms a Dormand-Prince stage state and heom_error_norm the RMS
 * norm of the error estimate, both from the addresses of the seven stages.
 * Each function takes the node count first. Every array is C-contiguous
 * and checked by the caller; nothing is allocated here.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define N 7    /* sites: a node is N x N */
#define NN (N * N)
#define STAGES 7
#define BLOCK 512

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
 * n, down and up are count x N: each node's multi-index and its neighbours'
 * ranks along each site, -1 for none. */
void heom_rhs(long count, const double *h, const double *r, const int64_t *n,
              const int64_t *down, const int64_t *up, double a_re, double a_im,
              double gamma, const double *q, double *out)
{
    v8 hl[N], rate = row(r);
    for (int l = 0; l < N; l++)
        hl[l] = row(h + l * N);
    for (long c = 0; c < count; c++) {
        const double *qc = q + c * NN;
        const int64_t *nc = n + c * N, *dc = down + c * N, *uc = up + c * N;
        v8 pr[N], pi[N];
        /* P' = Y X with Y = Q - i Q^T and X = i h - diag(r): row a of Y is
         * row a of Q minus i times column a, so Re P'_a = sum_l Q_la h_l -
         * r (.) row a of Q and Im P'_a = sum_l Q_al h_l + r (.) column a. */
        for (int a = 0; a < N; a++) {
            v8 sr = qc[a] * hl[0], si = qc[a * N] * hl[0];
            for (int l = 1; l < N; l++) {
                sr += qc[l * N + a] * hl[l];
                si += qc[a * N + l] * hl[l];
            }
            pr[a] = sr - row(qc + a * N) * rate;
            pi[a] = si + col(qc + a) * rate;
        }
        /* P' += R' Y: down neighbour, damping, up neighbour */
        double depth = 0.0;
        for (int k = 0; k < N; k++)
            depth += (double)nc[k];
        for (int k = 0; k < N; k++) {
            if (dc[k] >= 0)
                couple(q + dc[k] * NN, k, (double)nc[k] * a_re, (double)nc[k] * a_im,
                       &pr[k], &pi[k]);
            couple(qc, k, -0.5 * gamma * depth, 0.0, &pr[k], &pi[k]);
            if (uc[k] >= 0)
                couple(q + uc[k] * NN, k, 0.0, 1.0, &pr[k], &pi[k]);
        }
        /* dQ = Re P' - (Im P')^T, entry by entry: a vector store of the
         * 7-double rows would go through the stack. */
        double re[N][8], im[N][8];
        memcpy(re, pr, sizeof re);
        memcpy(im, pi, sizeof im);
        double *oc = out + c * NN;
        for (int a = 0; a < N; a++)
            for (int b = 0; b < N; b++)
                oc[a * N + b] = re[a][b] - im[b][a];
    }
}

/* y_new = y + h sum_{j < s} a[s][j] k[j] over the count * NN doubles of a
 * state, with a the Dormand-Prince tableau and k the stage addresses. A
 * stage whose coefficient is zero is not read. */
void heom_stage(long count, int s, const double a[][STAGES - 1], double h,
                const double *y, const double *const k[STAGES], double *y_new)
{
    long m = count * NN;
    for (long i0 = 0; i0 < m; i0 += BLOCK) {
        long len = m - i0 < BLOCK ? m - i0 : BLOCK;
        double acc[BLOCK];
        for (long i = 0; i < len; i++)
            acc[i] = a[s][0] * k[0][i0 + i];
        for (int j = 1; j < s; j++) {
            const double *kj = k[j] + i0;
            double aj = a[s][j];
            if (aj != 0.0)
                for (long i = 0; i < len; i++)
                    acc[i] += aj * kj[i];
        }
        for (long i = 0; i < len; i++)
            y_new[i0 + i] = y[i0 + i] + h * acc[i];
    }
}

/* RMS over every entry of h sum_j e[j] k[j] / scale, the error estimate of
 * the seven stages at addresses k summed node by node in stage order and
 * without the stages whose weight is zero; scale = atol + rtol
 * max(|zeta_ij|, |zeta_new_ij|) and |zeta_ij| = sqrt((Q_ij^2 + Q_ji^2) / 2)
 * is the modulus of the complex entry that Q stores. */
double heom_error_norm(long count, const double *e, double h, double atol,
                       double rtol, const double *y, const double *y_new,
                       const double *const k[STAGES])
{
    long m = count * NN;
    double factor = rtol / sqrt(2.0), sum = 0.0;
    for (long c = 0; c < count; c++) {
        const double *yc = y + c * NN, *nc = y_new + c * NN;
        double scale[NN], err[NN];
        for (int a = 0; a < N; a++)
            for (int b = 0; b < N; b++) {
                double u = yc[a * N + b], v = yc[b * N + a];
                double s = nc[a * N + b], t = nc[b * N + a];
                scale[a * N + b] = sqrt(fmax(u * u + v * v, s * s + t * t));
            }
        for (int i = 0; i < NN; i++)
            err[i] = e[0] * k[0][c * NN + i];
        for (int j = 1; j < STAGES; j++)
            if (e[j] != 0.0)
                for (int i = 0; i < NN; i++)
                    err[i] += e[j] * k[j][c * NN + i];
        for (int i = 0; i < NN; i++) {
            double r = err[i] * h / (scale[i] * factor + atol);
            sum += r * r;
        }
    }
    return sqrt(sum / (double)m);
}
