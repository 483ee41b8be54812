/* Compiled step kernel of the HEOM integrator in fmoheom/heom.py.
 *
 * heom_rhs evaluates the right-hand side of the real hierarchy state Q
 * (count nodes of 7 x 7 doubles, row-major) in one pass over the nodes.
 * For node c it forms Y = Q - i Q^T, computes P' = Y X + R' Y, where row k
 * of R' Y is n_k (a_re + i a_im), -gamma |n| / 2 and i times row k of Y of
 * the down neighbour c - e_k, of c and of the up neighbour c + e_k (row k
 * and column k of that node's Q), and writes dQ = Re P' - (Im P')^T. X =
 * i H^T - diag(r) is read as the real matrix H^T and the trap rates r. The
 * damping, the diagonal of R', acts on Y as the trap rates do, so one rate
 * vector r + gamma |n| / 2 applies both and only the neighbours are
 * gathered. A row of 7 doubles is held as one 8-double vector with a zero
 * eighth lane, so every product is a broadcast times a vector.
 *
 * heom_step finishes a Dormand-Prince step written as a polynomial in h L,
 * from the chain w_i = L^i y, i = 1..7, that the caller has formed with
 * heom_rhs, and the weights of h^i w_i, which the caller has scaled by h^i:
 * in one pass over the nodes it returns the RMS norm of the error
 * estimate, with one error scale per Hermitian pair of entries, and writes
 * y_new and f(y_new), whether or not the caller then accepts the step.
 * Each function takes the node count first. Every array is C-contiguous
 * and checked by the caller; nothing is allocated here.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define N 7    /* sites: a node is N x N */
#define NN (N * N)
#define STEPS 7  /* w_1..w_7 of a Dormand-Prince step, s[1..7] of heom_step */

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
    v8 hl[N], r8 = row(r);
    for (int l = 0; l < N; l++)
        hl[l] = row(h + l * N);
    for (long c = 0; c < count; c++) {
        const double *qc = q + c * NN;
        const int64_t *nc = n + c * N, *dc = down + c * N, *uc = up + c * N;
        double depth = 0.0;
        for (int k = 0; k < N; k++)
            depth += (double)nc[k];
        v8 rate = r8 + 0.5 * gamma * depth, pr[N], pi[N];
        /* P' = Y X - gamma |n| / 2 Y = Y (i h - diag(rate)) with Y = Q - i Q^T:
         * row a of Y is row a of Q minus i times column a, so Re P'_a = sum_l
         * Q_la h_l - rate (.) row a of Q and Im P'_a = sum_l Q_al h_l + rate
         * (.) column a. */
        for (int a = 0; a < N; a++) {
            v8 sr = qc[a] * hl[0], si = qc[a * N] * hl[0];
            for (int l = 1; l < N; l++) {
                sr += qc[l * N + a] * hl[l];
                si += qc[a * N + l] * hl[l];
            }
            pr[a] = sr - row(qc + a * N) * rate;
            pi[a] = si + col(qc + a) * rate;
        }
        /* P' += the off-diagonal part of R' Y: down and up neighbours */
        for (int k = 0; k < N; k++) {
            if (dc[k] >= 0)
                couple(q + dc[k] * NN, k, (double)nc[k] * a_re, (double)nc[k] * a_im,
                       &pr[k], &pi[k]);
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

/* RMS over every entry of err / scale, with the error estimate err =
 * sum_{i=1..7} e_i h^i w_i and scale = atol + rtol max(|zeta_ij|,
 * |zeta_new_ij|), where |zeta_ij| = sqrt((Q_ij^2 + Q_ji^2) / 2) is the
 * modulus of the complex entry that Q stores. |zeta_ij| = |zeta_ji|, so
 * one square root and one division serve the pair i <= j. The squares are
 * stored before a pair adds them, so no fused multiply-add makes the sum
 * depend on the order of the pair, and the two entries of a pair in the
 * RMS sum are added first: Q^T, that is zeta*, has the norm of Q bit for
 * bit, as in RK45 on the complex state. s holds the addresses of y,
 * w_1..w_7, and weights the six c_i h^i, then the seven e_i h^i. Each node
 * is read from all eight buffers, then y_new = y + sum_{i=1..6} c_i h^i w_i
 * is written into s[7] and f(y_new) = w_1 + sum_{i=1..6} c_i h^i w_{i+1}
 * into s[6]. */
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
        const double *yc = s[0] + o;
        double yn[NN], f[NN], err[NN], sq[NN], sq_new[NN], inv[NN];
        for (int i = 0; i < NN; i++) {
            yn[i] = yc[i];
            f[i] = s[1][o + i];
            err[i] = eh[STEPS - 1] * s[STEPS][o + i];
        }
        for (int j = 0; j < STEPS - 1; j++) {
            const double *wj = s[j + 1] + o, *wk = s[j + 2] + o;
            for (int i = 0; i < NN; i++) {
                yn[i] += ch[j] * wj[i];
                f[i] += ch[j] * wk[i];
                err[i] += eh[j] * wj[i];
            }
        }
        for (int i = 0; i < NN; i++) {
            sq[i] = yc[i] * yc[i];
            sq_new[i] = yn[i] * yn[i];
        }
        for (int a = 0; a < N; a++) /* one scale per pair */
            for (int b = a; b < N; b++) {
                double m = fmax(sq[a * N + b] + sq[b * N + a],
                                sq_new[a * N + b] + sq_new[b * N + a]);
                inv[a * N + b] = inv[b * N + a] = 1.0 / (sqrt(m) * factor + atol);
            }
        for (int i = 0; i < NN; i++) {
            double r = err[i] * inv[i];
            sum[i] += r * r;
        }
        memcpy(s[7] + o, yn, sizeof yn);
        memcpy(s[6] + o, f, sizeof f);
    }
    for (int a = 0; a < N; a++) {
        total += sum[a * N + a];
        for (int b = a + 1; b < N; b++)
            total += sum[a * N + b] + sum[b * N + a];
    }
    return sqrt(total / (double)(count * NN));
}
