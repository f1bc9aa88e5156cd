/*
 * The scoring hot path of SIFTDetector(platform="native"), bound by
 * repro.native.backend.
 *
 * One call scores a batch of equal-length windows for one fitted linear
 * model: min-max normalization, occupancy grid, the tier's features, the
 * standardizer and the SVM decision value.  The model -- tier, grid size,
 * weights, standardizer statistics, intercept -- arrives as arguments,
 * so one compiled library serves every wearer's models.
 *
 * The contract is bit parity with the NumPy reference path, not
 * approximate agreement.  Every floating-point reduction NumPy performs is
 * replicated with its exact association order:
 *
 *   np.sum / np.mean / np.std / np.var / np.trapezoid use pairwise
 *   summation with an unrolled 8-accumulator base case and a block size
 *   of 128 (pairwise_sum mirrors numpy's pairwise_sum@TYPE@ scalar kernel);
 *   outer-axis reductions (matrix.mean(axis=0)) accumulate row by row
 *   (sift_colmean);
 *   the geometric features follow the repository's sequential-mean
 *   contract (plain left-to-right loops, like the device build);
 *   np.einsum("ij,j->i", X, w) for 8 and 5 features uses the exact
 *   lane-and-combine orders of numpy's AVX-512 sum_of_products_contig_two
 *   kernel (sift_dot8 / sift_dot5);
 *   np.arctan2 is not libm atan2 (they differ in the last ulp on a few
 *   percent of inputs): numpy dispatches to Intel SVML's
 *   __svml_atan28_ha.  The Original tier calls that very vector routine
 *   through a pointer the caller resolves from numpy's own extension
 *   module, with tails padded to a full 8-lane vector.
 *
 * The scaler is not folded into the weights -- the reference path
 * standardizes first and folding would re-round -- so each window
 * computes z = (f - mean) / scale, then dot(z, coef) + intercept.
 *
 * Compile with -ffp-contract=off: fused multiply-adds re-round
 * differently from NumPy's mul-then-add sequences.  The only AVX-512 code
 * is batch_atan2, compiled for that target by its own attribute, so the
 * library builds with one flag set and the Simplified and Reduced tiers
 * run on hosts without AVX-512.  Scratch memory is allocated per call and
 * nothing is kept between calls, so the entry point is re-entrant.
 */
#include <math.h>
#include <stdlib.h>

/* Tier codes of sift_score_windows, in DetectorVersion order. */
#define SIFT_ORIGINAL 0
#define SIFT_SIMPLIFIED 1
#define SIFT_REDUCED 2

/* The slope features' denominator floor, 1 / 2^14. */
#define SIFT_EPS 0x1p-14

/* numpy pairwise summation (PW_BLOCKSIZE = 128), scalar kernel order. */
static double pairwise_sum(const double *a, long n)
{
    if (n < 8) {
        long i;
        double res = 0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    else if (n <= 128) {
        long i;
        double r[8], res;
        r[0] = a[0]; r[1] = a[1]; r[2] = a[2]; r[3] = a[3];
        r[4] = a[4]; r[5] = a[5]; r[6] = a[6]; r[7] = a[7];
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i + 0]; r[1] += a[i + 1];
            r[2] += a[i + 2]; r[3] += a[i + 3];
            r[4] += a[i + 4]; r[5] += a[i + 5];
            r[6] += a[i + 6]; r[7] += a[i + 7];
        }
        res = ((r[0] + r[1]) + (r[2] + r[3]))
            + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    else {
        long n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

/* The repository's sequential-mean contract: left-to-right accumulation. */
static double seq_mean(const double *v, long n)
{
    double total = 0.0;
    long i;
    for (i = 0; i < n; i++)
        total = total + v[i];
    return total / (double)n;
}

/* matrix.mean(axis=0): numpy reduces the outer axis row by row. */
static void sift_colmean(const double *m, long nrow, long ncol, double *out)
{
    long i, j;
    for (j = 0; j < ncol; j++)
        out[j] = m[j];
    for (i = 1; i < nrow; i++)
        for (j = 0; j < ncol; j++)
            out[j] += m[i * ncol + j];
    for (j = 0; j < ncol; j++)
        out[j] /= (double)nrow;
}

/* np.einsum("ij,j->i") for 8 features: AVX-512 kernel's exact order. */
static double sift_dot8(const double *x, const double *w)
{
    double l0 = x[0] * w[0] + (x[2] * w[2] + (x[4] * w[4] + x[6] * w[6]));
    double l1 = x[1] * w[1] + (x[3] * w[3] + (x[5] * w[5] + x[7] * w[7]));
    return l0 + l1;
}

/* np.einsum("ij,j->i") for 5 features: partial-vector kernel order. */
static double sift_dot5(const double *x, const double *w)
{
    double l0 = (x[0] * w[0] + x[2] * w[2]) + x[4] * w[4];
    double l1 = x[1] * w[1] + x[3] * w[3];
    return l0 + l1;
}

/* Min-max normalization to [0, 1]; constant windows map to all 0.5. */
static void sift_norm01(const double *a, long n, double *out)
{
    double lo = a[0], hi = a[0];
    long i;
    for (i = 1; i < n; i++) {
        if (a[i] < lo) lo = a[i];
        if (a[i] > hi) hi = a[i];
    }
    if (hi <= lo) {
        for (i = 0; i < n; i++)
            out[i] = 0.5;
        return;
    }
    for (i = 0; i < n; i++)
        out[i] = (a[i] - lo) / (hi - lo);
}

/* np.arctan2 == Intel SVML __svml_atan28_ha, called through fn.  Tails
 * are padded with (1.0, 1.0) to fill the 8-lane vector.  vec8 is
 * immintrin.h's __m512d (same layout and calling convention) without the
 * header, which would triple the compile time. */
__attribute__((target("avx512f")))
static void batch_atan2(void *fn, const double *y, const double *x,
                        long n, double *out)
{
    typedef double vec8
        __attribute__((vector_size(64), aligned(8), may_alias));
    typedef vec8 (*atan2_vec)(vec8, vec8);
    atan2_vec vec = (atan2_vec)fn;
    long i = 0;
    for (; i + 8 <= n; i += 8)
        *(vec8 *)(out + i) = vec(*(const vec8 *)(y + i),
                                 *(const vec8 *)(x + i));
    if (i < n) {
        double ty[8], tx[8], to[8];
        long j, r = n - i;
        for (j = 0; j < 8; j++) {
            ty[j] = 1.0;
            tx[j] = 1.0;
        }
        for (j = 0; j < r; j++) {
            ty[j] = y[i + j];
            tx[j] = x[i + j];
        }
        *(vec8 *)to = vec(*(const vec8 *)ty, *(const vec8 *)tx);
        for (j = 0; j < r; j++)
            out[i + j] = to[j];
    }
}

/* match_peaks: sort the systolic indexes, then pair each R peak with the
 * first strictly-later systolic peak within max_lag samples
 * (np.searchsorted side="right" == upper bound). */
static long sift_pair_peaks(const long *ri, long nr,
                            const long *si, long ns,
                            long max_lag, long *ss,
                            const double *nx, const double *ny,
                            double *prx, double *pry,
                            double *psx, double *psy)
{
    long i, j, npair = 0;
    for (i = 0; i < ns; i++) {
        long v = si[i];
        for (j = i; j > 0 && ss[j - 1] > v; j--)
            ss[j] = ss[j - 1];
        ss[j] = v;
    }
    for (i = 0; i < nr; i++) {
        long r = ri[i];
        long lo = 0, hi = ns;
        while (lo < hi) {
            long mid = (lo + hi) / 2;
            if (ss[mid] <= r)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo < ns && ss[lo] - r <= max_lag) {
            prx[npair] = nx[r];
            pry[npair] = ny[r];
            psx[npair] = nx[ss[lo]];
            psy[npair] = ny[ss[lo]];
            npair++;
        }
    }
    return npair;
}

/* Spatial filling index: n^2 * sum((c_ij / N)^2), 0.0 for an empty grid. */
static double sift_sfi(const double *grid, long g2, double *tmp)
{
    double total = pairwise_sum(grid, g2);
    long i;
    if (total == 0.0)
        return 0.0;
    for (i = 0; i < g2; i++) {
        double p = grid[i] / total;
        tmp[i] = p * p;
    }
    return (double)g2 * pairwise_sum(tmp, g2);
}

/* Occupancy grid: counts accumulated directly in double (exact for any
 * realistic window length; numpy casts the int64 grid to float64 before
 * every reduction anyway). */
static void sift_grid(const double *nx, const double *ny, long n, long gn,
                      double *grid)
{
    long t;
    for (t = 0; t < gn * gn; t++)
        grid[t] = 0.0;
    for (t = 0; t < n; t++) {
        long col = (long)(ny[t] * (double)gn);
        long row = (long)(nx[t] * (double)gn);
        if (col > gn - 1)
            col = gn - 1;
        if (row > gn - 1)
            row = gn - 1;
        grid[row * gn + col] += 1.0;
    }
}

/* np.var: pairwise mean, squared deviations, pairwise mean. */
static double sift_var(const double *a, long n, double *tmp)
{
    double mean = pairwise_sum(a, n) / (double)n;
    long i;
    for (i = 0; i < n; i++) {
        double d = a[i] - mean;
        tmp[i] = d * d;
    }
    return pairwise_sum(tmp, n) / (double)n;
}

/* np.trapezoid over a unit-spaced curve. */
static double sift_trapz(const double *a, long n, double *tmp)
{
    long i;
    if (n < 2)
        return 0.0;
    for (i = 0; i + 1 < n; i++)
        tmp[i] = 1.0 * (a[i + 1] + a[i]) / 2.0;
    return pairwise_sum(tmp, n - 1);
}

/* The composite-sum AUC: 0.5 * sum(f_k + f_{k+1}). */
static double sift_auc_comp(const double *a, long n, double *tmp)
{
    long i;
    if (n < 2)
        return 0.0;
    for (i = 0; i + 1 < n; i++)
        tmp[i] = a[i] + a[i + 1];
    return 0.5 * pairwise_sum(tmp, n - 1);
}

/* Mean atan2(y, x) over peak points; 0.0 when there are none. */
static double sift_angle_avg(void *fn, const double *px, const double *py,
                             long m, double *tmp)
{
    if (m == 0)
        return 0.0;
    batch_atan2(fn, py, px, m, tmp);
    return seq_mean(tmp, m);
}

/* Mean Euclidean distance to the origin; 0.0 when there are none. */
static double sift_dist_avg(const double *px, const double *py,
                            long m, double *tmp)
{
    long i;
    if (m == 0)
        return 0.0;
    for (i = 0; i < m; i++)
        tmp[i] = sqrt(px[i] * px[i] + py[i] * py[i]);
    return seq_mean(tmp, m);
}

/* Mean slope y / max(x, eps); 0.0 when there are no peaks. */
static double sift_slope_avg(const double *px, const double *py,
                             long m, double *tmp)
{
    long i;
    if (m == 0)
        return 0.0;
    for (i = 0; i < m; i++) {
        double d = px[i] >= SIFT_EPS ? px[i] : SIFT_EPS;
        tmp[i] = py[i] / d;
    }
    return seq_mean(tmp, m);
}

/* Mean squared distance to the origin; 0.0 when there are no peaks. */
static double sift_sqd_avg(const double *px, const double *py,
                           long m, double *tmp)
{
    long i;
    if (m == 0)
        return 0.0;
    for (i = 0; i < m; i++)
        tmp[i] = px[i] * px[i] + py[i] * py[i];
    return seq_mean(tmp, m);
}

/* Mean distance between corresponding peak pairs (squared if sq). */
static double sift_pair_avg(const double *prx, const double *pry,
                            const double *psx, const double *psy,
                            long m, long sq, double *tmp)
{
    long i;
    if (m == 0)
        return 0.0;
    for (i = 0; i < m; i++) {
        double dx = prx[i] - psx[i];
        double dy = pry[i] - psy[i];
        tmp[i] = sq ? dx * dx + dy * dy : sqrt(dx * dx + dy * dy);
    }
    return seq_mean(tmp, m);
}

/* Score n_windows equal-length windows for one model; returns 0 on
 * success, 1 when scratch memory cannot be allocated, 2 for an Original
 * model without an atan2 routine.
 *
 * The model: tier (a SIFT_* code), grid_n (ignored by the Reduced tier),
 * coef/mean/scale (5 doubles for Reduced, 8 otherwise), intercept and,
 * for the Original tier, atan2_fn (__svml_atan28_ha).  The windows:
 * ecg/abp are row-major (n_windows, n_samples); peak indexes arrive as
 * CSR-style (values, offsets) pairs.  out receives one decision value
 * per window. */
long sift_score_windows(long tier, long grid_n,
                        const double *coef, const double *mean,
                        const double *scale, double intercept,
                        void *atan2_fn,
                        const double *ecg, const double *abp,
                        long n_windows, long n_samples,
                        const long *r_idx, const long *r_off,
                        const long *s_idx, const long *s_off,
                        const long *max_lag, double *out)
{
    long matrix = tier != SIFT_REDUCED;
    long gn = matrix ? grid_n : 0;
    long g2 = gn * gn;
    long nf = matrix ? 8 : 5;
    long tmax = n_samples > g2 ? n_samples : g2;
    double *buf;
    long *ss;
    double *nx, *ny, *tmp, *px, *py, *prx, *pry, *psx, *psy, *grid, *colavg;
    long w, i, npair;
    if (tier == SIFT_ORIGINAL && atan2_fn == 0)
        return 2;
    buf = (double *)malloc(sizeof(double) * (8 * n_samples + tmax + g2 + gn));
    ss = (long *)malloc(sizeof(long) * (n_samples > 0 ? n_samples : 1));
    if (buf == 0 || ss == 0) {
        free(buf);
        free(ss);
        return 1;
    }
    nx = buf;
    ny = nx + n_samples;
    px = ny + n_samples;
    py = px + n_samples;
    prx = py + n_samples;
    pry = prx + n_samples;
    psx = pry + n_samples;
    psy = psx + n_samples;
    tmp = psy + n_samples;
    grid = tmp + tmax;
    colavg = grid + g2;
    for (w = 0; w < n_windows; w++) {
        const double *e = ecg + w * n_samples;
        const double *a = abp + w * n_samples;
        const long *ri = r_idx + r_off[w];
        const long *si = s_idx + s_off[w];
        long nr = r_off[w + 1] - r_off[w];
        long nsk = s_off[w + 1] - s_off[w];
        double f[8];
        double *geo = matrix ? f + 3 : f;
        long k;
        sift_norm01(e, n_samples, ny);
        sift_norm01(a, n_samples, nx);
        if (matrix) {
            sift_grid(nx, ny, n_samples, gn, grid);
            sift_colmean(grid, gn, gn, colavg);
            f[0] = sift_sfi(grid, g2, tmp);
        }
        if (tier == SIFT_ORIGINAL) {
            f[1] = sqrt(sift_var(colavg, gn, tmp));
            f[2] = sift_trapz(colavg, gn, tmp);
        }
        else if (matrix) {
            f[1] = sift_var(colavg, gn, tmp);
            f[2] = sift_auc_comp(colavg, gn, tmp);
        }
        /* geo[0..4]: R-peak and systolic-peak angle (or slope) and
         * distance (or squared distance) averages, then the pairs'. */
        for (i = 0; i < nr; i++) {
            px[i] = nx[ri[i]];
            py[i] = ny[ri[i]];
        }
        if (tier == SIFT_ORIGINAL) {
            geo[0] = sift_angle_avg(atan2_fn, px, py, nr, tmp);
            geo[2] = sift_dist_avg(px, py, nr, tmp);
        }
        else {
            geo[0] = sift_slope_avg(px, py, nr, tmp);
            geo[2] = sift_sqd_avg(px, py, nr, tmp);
        }
        for (i = 0; i < nsk; i++) {
            px[i] = nx[si[i]];
            py[i] = ny[si[i]];
        }
        if (tier == SIFT_ORIGINAL) {
            geo[1] = sift_angle_avg(atan2_fn, px, py, nsk, tmp);
            geo[3] = sift_dist_avg(px, py, nsk, tmp);
        }
        else {
            geo[1] = sift_slope_avg(px, py, nsk, tmp);
            geo[3] = sift_sqd_avg(px, py, nsk, tmp);
        }
        npair = sift_pair_peaks(ri, nr, si, nsk, max_lag[w], ss,
                                nx, ny, prx, pry, psx, psy);
        geo[4] = sift_pair_avg(prx, pry, psx, psy, npair,
                               tier != SIFT_ORIGINAL, tmp);
        for (k = 0; k < nf; k++)
            f[k] = (f[k] - mean[k]) / scale[k];
        out[w] = (matrix ? sift_dot8(f, coef) : sift_dot5(f, coef))
            + intercept;
    }
    free(buf);
    free(ss);
    return 0;
}
