/*
 * SMO training kernel for repro.ml.svm.SVC (bound by repro.native.smo).
 *
 * A line-for-line port of the NumPy loop in SVC.fit that reproduces its
 * fitted state bit for bit.  Compile with -ffp-contract=off: every
 * rounding step below is deliberate.
 *
 * Reduction contract.  Each error term in the NumPy loop is
 * np.dot(alpha * y, K[:, i]): a contiguous vector against a strided
 * column, which numpy hands to OpenBLAS's strided ddot.  That kernel sums
 * groups of four products into two accumulators (t1 += m0 + m2;
 * t2 += m1 + m3), folds the tail into t1 with a fused multiply-add and
 * returns t1 + t2; numpy then adds the result to 0.0.  smo_dot repeats
 * exactly that, and sift_smo_dot exports it for the load-time probe.
 *
 * Reading K.  The NumPy loop reads column i of K.  When K is
 * bit-symmetric (the linear Gram matrix X @ X.T is: BLAS computes one
 * triangle and mirrors it) column i holds the same bits as the
 * contiguous row i, which is about four times faster to stream than a
 * stride-n column.  The caller decides with sift_smo_symmetric, which
 * compares the bits, so no kernel's symmetry is taken on trust.
 *
 * Random draws.  The second multiplier's index comes from the caller in
 * blocks (draws[]).  When a block runs out, sift_smo_solve saves its
 * position in state[] and returns SMO_NEED_DRAWS; the caller passes the
 * next block and the loop resumes at the same sample.
 */
#include <math.h>
#include <string.h>

#define SMO_DONE 0
#define SMO_NEED_DRAWS 1

static double smo_dot(const double *x, const double *y, long n, long incy)
{
    double t1 = 0.0;
    double t2 = 0.0;
    long n4 = n & -4L;
    long k = 0;
    for (; k < n4; k += 4) {
        double m0 = x[k] * y[k * incy];
        double m1 = x[k + 1] * y[(k + 1) * incy];
        double m2 = x[k + 2] * y[(k + 2) * incy];
        double m3 = x[k + 3] * y[(k + 3) * incy];
        t1 += m0 + m2;
        t2 += m1 + m3;
    }
    for (; k < n; k++) {
        t1 = fma(x[k], y[k * incy], t1);
    }
    return 0.0 + (t1 + t2);
}

double sift_smo_dot(const double *x, const double *y, long n, long incy)
{
    return smo_dot(x, y, n, incy);
}

/* Python's max(a, b) and min(a, b): the first argument wins ties and NaN. */
static double py_max(double a, double b)
{
    return b > a ? b : a;
}

static double py_min(double a, double b)
{
    return b < a ? b : a;
}

/*
 * np.clip on a float64 scalar as numpy 2.x computes it: ties keep x
 * (np.clip(-0.0, 0.0, 1.0) is -0.0) and a NaN anywhere propagates.
 * tests/native/test_smo_parity.py pins numpy to this rule.
 */
static double np_clip(double x, double lo, double hi)
{
    double t = (x >= lo || x != x) ? x : lo;
    return (t <= hi || t != t) ? t : hi;
}

/* 1 when K[i][j] and K[j][i] hold the same bits for every i, j. */
long sift_smo_symmetric(const double *K, long n)
{
    long i, j;
    for (i = 0; i < n; i++) {
        for (j = i + 1; j < n; j++) {
            if (memcmp(K + i * n + j, K + j * n + i, sizeof(double)) != 0) {
                return 0;
            }
        }
    }
    return 1;
}

/*
 * K: the n x n Gram matrix, C-contiguous.  sym: sift_smo_symmetric(K, n),
 * so column i is read as the contiguous row i.
 * state: {iteration, passes, next sample, updates this pass}; b_io: b.
 */
long sift_smo_solve(const double *K, long n, long sym, const double *y,
                    double *alpha, double *ay, double c, double tol,
                    long max_passes, long max_iter, const long *draws,
                    long n_draws, long *state, double *b_io)
{
    long iteration = state[0];
    long passes = state[1];
    long start = state[2];
    long changed = state[3];
    long incy = sym ? 1 : n;
    long used = 0;
    double b = *b_io;
    long k;

    for (k = 0; k < n; k++) {
        ay[k] = alpha[k] * y[k];
    }
    while (passes < max_passes && iteration < max_iter) {
        long i;
        for (i = start; i < n; i++) {
            const double *col_i = sym ? K + i * n : K + i;
            double e_i = (smo_dot(ay, col_i, n, incy) + b) - y[i];
            double r_i = y[i] * e_i;
            double ai_old, aj_old, low, high, eta, kii, kij, kjj, e_j;
            double di, dj, b1, b2;
            const double *col_j;
            long j;
            if (!((r_i < -tol && alpha[i] < c) || (r_i > tol && alpha[i] > 0))) {
                continue;
            }
            if (used == n_draws) {
                state[0] = iteration;
                state[1] = passes;
                state[2] = i;
                state[3] = changed;
                *b_io = b;
                return SMO_NEED_DRAWS;
            }
            j = draws[used++];
            if (j >= i) {
                j += 1;
            }
            col_j = sym ? K + j * n : K + j;
            e_j = (smo_dot(ay, col_j, n, incy) + b) - y[j];

            ai_old = alpha[i];
            aj_old = alpha[j];
            if (y[i] != y[j]) {
                low = py_max(0.0, alpha[j] - alpha[i]);
                high = py_min(c, (c + alpha[j]) - alpha[i]);
            } else {
                low = py_max(0.0, (alpha[i] + alpha[j]) - c);
                high = py_min(c, alpha[i] + alpha[j]);
            }
            if (high - low < 1e-12) {
                continue;
            }
            kii = K[i * n + i];
            kij = K[i * n + j];
            kjj = K[j * n + j];
            eta = (2.0 * kij - kii) - kjj;
            if (eta >= 0) {
                continue;
            }
            alpha[j] = np_clip(alpha[j] - (y[j] * (e_i - e_j)) / eta, low, high);
            ay[j] = alpha[j] * y[j];
            dj = alpha[j] - aj_old;
            if (dj < 1e-7 && dj > -1e-7) {
                continue;
            }
            alpha[i] += (y[i] * y[j]) * (aj_old - alpha[j]);
            ay[i] = alpha[i] * y[i];

            di = y[i] * (alpha[i] - ai_old);
            dj = y[j] * (alpha[j] - aj_old);
            b1 = ((b - e_i) - di * kii) - dj * kij;
            b2 = ((b - e_j) - di * kij) - dj * kjj;
            if (0 < alpha[i] && alpha[i] < c) {
                b = b1;
            } else if (0 < alpha[j] && alpha[j] < c) {
                b = b2;
            } else {
                b = 0.5 * (b1 + b2);
            }
            changed += 1;
        }
        passes = changed == 0 ? passes + 1 : 0;
        iteration += 1;
        start = 0;
        changed = 0;
    }
    state[0] = iteration;
    state[1] = passes;
    state[2] = 0;
    state[3] = 0;
    *b_io = b;
    return SMO_DONE;
}
