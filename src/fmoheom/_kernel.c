/* Compiled step kernel of the HEOM integrator in fmoheom/heom.py.
 *
 * heom_rhs evaluates the right-hand side of the real hierarchy state Q
 * (count nodes of 7 x 7 doubles, row-major) in one pass over the nodes.
 * For node c it forms Y = Q - i Q^T, computes P' = Y X + R' Y, where row
 * (c, k) of the CSR coupling R' reads row k of Y of each neighbour, that
 * is row k and column k of the neighbour's Q, and writes
 * dQ = Re P' - (Im P')^T. A row of 7 doubles is held as two 4-double
 * vectors with a zero eighth lane, so every product is a broadcast times
 * a vector.
 *
 * heom_stage forms a Dormand-Prince stage state and heom_error_norm the
 * RMS norm of the step's error estimate. Each function takes the node
 * count first. Complex arrays hold real and imaginary parts interleaved,
 * as numpy's complex128 does. Every array is C-contiguous and checked by
 * the caller; nothing is allocated here.
 */
#include <math.h>
#include <string.h>

#define N 7    /* sites: a node is N x N */
#define NN (N * N)
#define STAGES 7
#define BLOCK 512

typedef double v4 __attribute__((vector_size(32)));

/* Row p[0..6] as two vectors, the eighth lane zero. */
static inline void row(const double *p, v4 v[2])
{
    memcpy(&v[0], p, sizeof(v4));
    v[1] = (v4){p[4], p[5], p[6], 0.0};
}

/* Real (part 0) or imaginary (part 1) parts of the complex row p[0..6]. */
static inline void complex_row(const double *p, int part, v4 v[2])
{
    double u[N];
    for (int b = 0; b < N; b++)
        u[b] = p[2 * b + part];
    row(u, v);
}

/* Column p[0], p[N], ..., p[6 N] as two vectors, the eighth lane zero. */
static inline void col(const double *p, v4 v[2])
{
    v[0] = (v4){p[0], p[N], p[2 * N], p[3 * N]};
    v[1] = (v4){p[4 * N], p[5 * N], p[6 * N], 0.0};
}

/* x is X = i H_eff^dagger, N x N complex; indptr, indices and r are R' in
 * CSR over count * N rows, column node * N + k, with complex entries r. */
void heom_rhs(long count, const double *x, const int *indptr, const int *indices,
              const double *r, const double *q, double *out)
{
    v4 xr[N][2], xi[N][2];
    for (int l = 0; l < N; l++) {
        complex_row(x + 2 * l * N, 0, xr[l]);
        complex_row(x + 2 * l * N, 1, xi[l]);
    }
    for (long c = 0; c < count; c++) {
        const double *qc = q + c * NN;
        v4 pr[N][2], pi[N][2];
        /* P' = Y X with Y = Q - i Q^T */
        for (int a = 0; a < N; a++) {
            v4 sr0 = {0}, sr1 = {0}, si0 = {0}, si1 = {0};
            for (int l = 0; l < N; l++) {
                double ur = qc[a * N + l], ui = -qc[l * N + a];
                sr0 += ur * xr[l][0] - ui * xi[l][0];
                sr1 += ur * xr[l][1] - ui * xi[l][1];
                si0 += ur * xi[l][0] + ui * xr[l][0];
                si1 += ur * xi[l][1] + ui * xr[l][1];
            }
            pr[a][0] = sr0; pr[a][1] = sr1; pi[a][0] = si0; pi[a][1] = si1;
        }
        /* P' += R' Y: row k of Y of a neighbour is row k minus i column k of its Q */
        for (int k = 0; k < N; k++) {
            long row_ck = c * N + k;
            for (int j = indptr[row_ck]; j < indptr[row_ck + 1]; j++) {
                const double *qn = q + (long)(indices[j] / N) * NN;
                double dr = r[2 * j], di = r[2 * j + 1];
                v4 u[2], w[2];
                row(qn + k * N, u);
                col(qn + k, w);
                for (int h = 0; h < 2; h++) {
                    pr[k][h] += dr * u[h] + di * w[h];
                    pi[k][h] += di * u[h] - dr * w[h];
                }
            }
        }
        double im[N][8];
        memcpy(im, pi, sizeof im);
        double *oc = out + c * NN;
        for (int a = 0; a < N; a++) {
            v4 lo = pr[a][0] - (v4){im[0][a], im[1][a], im[2][a], im[3][a]};
            v4 hi = pr[a][1] - (v4){im[4][a], im[5][a], im[6][a], 0.0};
            memcpy(oc + a * N, &lo, sizeof lo);
            oc[a * N + 4] = hi[0];
            oc[a * N + 5] = hi[1];
            oc[a * N + 6] = hi[2];
        }
    }
}

/* y_new = y + h sum_{j < s} a[s][j] k_j over the count * NN doubles of a
 * state, with a the Dormand-Prince tableau; stage j starts at k + j m. */
void heom_stage(long count, int s, const double a[][STAGES - 1], double h,
                const double *y, const double *k, double *y_new)
{
    long m = count * NN;
    for (long i0 = 0; i0 < m; i0 += BLOCK) {
        long len = m - i0 < BLOCK ? m - i0 : BLOCK;
        double acc[BLOCK];
        for (long i = 0; i < len; i++)
            acc[i] = a[s][0] * k[i0 + i];
        for (int j = 1; j < s; j++) {
            const double *kj = k + j * m + i0;
            for (long i = 0; i < len; i++)
                acc[i] += a[s][j] * kj[i];
        }
        for (long i = 0; i < len; i++)
            y_new[i0 + i] = y[i0 + i] + h * acc[i];
    }
}

/* RMS over every entry of (h sum_j e[j] k_j) / scale with the STAGES stages
 * k_j, where scale = atol + rtol max(|zeta_ij|, |zeta_new_ij|) and
 * |zeta_ij| = sqrt((Q_ij^2 + Q_ji^2) / 2) is the modulus of the complex
 * entry that Q stores. */
double heom_error_norm(long count, const double *e, double h, double atol,
                       double rtol, const double *y, const double *y_new,
                       const double *k)
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
            err[i] = e[0] * k[c * NN + i];
        for (int j = 1; j < STAGES; j++)
            for (int i = 0; i < NN; i++)
                err[i] += e[j] * k[j * m + c * NN + i];
        for (int i = 0; i < NN; i++) {
            double r = err[i] * h / (scale[i] * factor + atol);
            sum += r * r;
        }
    }
    return sqrt(sum / (double)m);
}
