"""C code generation for the full native scoring hot path.

:mod:`repro.ml.model_codegen` translates the *decision function* to device
C.  This module extends code generation to the entire scoring pipeline --
window min-max normalization, occupancy-grid construction, feature
extraction and the standardized SVM decision value -- as a single
self-contained C translation unit per ``(version, grid_n, model)`` triple,
compiled on the host and loaded by :mod:`repro.native.build`.

The contract is **bit parity** with the NumPy reference path, not
approximate agreement.  Every floating-point reduction NumPy performs is
replicated with its exact association order:

* ``np.sum`` / ``np.mean`` / ``np.std`` / ``np.var`` / ``np.trapezoid``
  use pairwise summation with an unrolled 8-accumulator base case and a
  block size of 128 (``pairwise_sum`` below mirrors numpy's
  ``pairwise_sum@TYPE@`` scalar kernel);
* outer-axis reductions (``matrix.mean(axis=0)``) accumulate row by row
  sequentially (``sift_colmean``);
* the geometric features follow the repository's sequential-mean contract
  (plain left-to-right loops, like the device build);
* ``np.einsum("ij,j->i", X, w)`` for 8 and 5 features uses the exact
  lane-and-combine orders of numpy's AVX-512
  ``sum_of_products_contig_two`` kernel (``sift_dot8`` / ``sift_dot5``);
* ``np.arctan2`` is *not* libm ``atan2`` (they differ in the last ulp on
  a few percent of inputs): numpy dispatches to Intel SVML's
  ``__svml_atan28_ha``.  The generated Original-tier code calls the very
  same vector routine through a function pointer the loader resolves from
  numpy's own extension module, with tails padded to a full 8-lane vector.

Floating-point model constants are embedded as C99 hexadecimal-float
literals (:func:`repro.ml.model_codegen.c_double_literal`), which
round-trip float64 bit-for-bit -- including negative zero and subnormals.
The translation unit must be compiled with ``-ffp-contract=off``: fused
multiply-adds re-round differently from NumPy's mul-then-add sequences.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.versions import DetectorVersion
from repro.ml.model_codegen import c_double_literal

__all__ = ["generate_hot_path_source"]

#: Return codes of the generated ``sift_score_windows`` entry point.
SIFT_OK = 0
SIFT_ENOMEM = 1
SIFT_ENOATAN2 = 2


def _literal_array(name: str, values: Sequence[float]) -> str:
    """A ``static const double`` array with exact hex-float initializers."""
    items = [c_double_literal(float(v)) for v in values]
    body = ",\n    ".join(items)
    return (
        f"static const double {name}[{len(items)}] = {{\n    {body}\n}};\n"
    )


_PAIRWISE_SUM = """\
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
"""

_SEQ_MEAN = """\
/* The repository's sequential-mean contract: left-to-right accumulation. */
static double seq_mean(const double *v, long n)
{
    double total = 0.0;
    long i;
    for (i = 0; i < n; i++)
        total = total + v[i];
    return total / (double)n;
}
"""

_COLMEAN = """\
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
"""

_DOT8 = """\
/* np.einsum("ij,j->i") for 8 features: AVX-512 kernel's exact order. */
static double sift_dot8(const double *x, const double *w)
{
    double l0 = x[0] * w[0] + (x[2] * w[2] + (x[4] * w[4] + x[6] * w[6]));
    double l1 = x[1] * w[1] + (x[3] * w[3] + (x[5] * w[5] + x[7] * w[7]));
    return l0 + l1;
}
"""

_DOT5 = """\
/* np.einsum("ij,j->i") for 5 features: partial-vector kernel order. */
static double sift_dot5(const double *x, const double *w)
{
    double l0 = (x[0] * w[0] + x[2] * w[2]) + x[4] * w[4];
    double l1 = x[1] * w[1] + x[3] * w[3];
    return l0 + l1;
}
"""

_NORM01 = """\
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
"""

_ATAN2 = """\
/* np.arctan2 == Intel SVML __svml_atan28_ha, resolved by the loader
 * from numpy's extension module and installed via sift_set_atan2.
 * Tails are padded with (1.0, 1.0) to fill the 8-lane vector. */
typedef __m512d (*sift_atan2_fn)(__m512d, __m512d);
static sift_atan2_fn sift_atan2_ptr = 0;

void sift_set_atan2(void *fn)
{
    sift_atan2_ptr = (sift_atan2_fn)fn;
}

static void batch_atan2(const double *y, const double *x, long n, double *out)
{
    long i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512d vy = _mm512_loadu_pd(y + i);
        __m512d vx = _mm512_loadu_pd(x + i);
        _mm512_storeu_pd(out + i, sift_atan2_ptr(vy, vx));
    }
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
        _mm512_storeu_pd(to,
            sift_atan2_ptr(_mm512_loadu_pd(ty), _mm512_loadu_pd(tx)));
        for (j = 0; j < r; j++)
            out[i + j] = to[j];
    }
}
"""

_PAIRING = """\
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
"""

_MATRIX_HELPERS = """\
/* Spatial filling index: n^2 * sum((c_ij / N)^2), 0.0 for an empty grid. */
static double sift_sfi(const double *grid, double *tmp)
{
    double total = pairwise_sum(grid, SIFT_G2);
    long i;
    if (total == 0.0)
        return 0.0;
    for (i = 0; i < SIFT_G2; i++) {
        double p = grid[i] / total;
        tmp[i] = p * p;
    }
    return (double)SIFT_G2 * pairwise_sum(tmp, SIFT_G2);
}

/* Occupancy grid: counts accumulated directly in double (exact for any
 * realistic window length; numpy casts the int64 grid to float64 before
 * every reduction anyway). */
static void sift_grid(const double *nx, const double *ny, long n, double *grid)
{
    long t;
    for (t = 0; t < SIFT_G2; t++)
        grid[t] = 0.0;
    for (t = 0; t < n; t++) {
        long col = (long)(ny[t] * (double)SIFT_GN);
        long row = (long)(nx[t] * (double)SIFT_GN);
        if (col > SIFT_GN - 1)
            col = SIFT_GN - 1;
        if (row > SIFT_GN - 1)
            row = SIFT_GN - 1;
        grid[row * SIFT_GN + col] += 1.0;
    }
}
"""

_STD_HELPER = """\
/* np.std: pairwise mean, squared deviations, pairwise mean, sqrt. */
static double sift_std(const double *a, long n, double *tmp)
{
    double mean = pairwise_sum(a, n) / (double)n;
    long i;
    for (i = 0; i < n; i++) {
        double d = a[i] - mean;
        tmp[i] = d * d;
    }
    return sqrt(pairwise_sum(tmp, n) / (double)n);
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
"""

_VAR_HELPER = """\
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
"""

_GEOM_ORIGINAL = """\
/* Mean atan2(y, x) over peak points; 0.0 when there are none. */
static double sift_angle_avg(const double *px, const double *py,
                             long m, double *tmp)
{
    if (m == 0)
        return 0.0;
    batch_atan2(py, px, m, tmp);
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

/* Mean distance between corresponding peak pairs. */
static double sift_pdist_avg(const double *prx, const double *pry,
                             const double *psx, const double *psy,
                             long m, double *tmp)
{
    long i;
    if (m == 0)
        return 0.0;
    for (i = 0; i < m; i++) {
        double dx = prx[i] - psx[i];
        double dy = pry[i] - psy[i];
        tmp[i] = sqrt(dx * dx + dy * dy);
    }
    return seq_mean(tmp, m);
}
"""

_GEOM_SIMPLIFIED = """\
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

/* Mean squared distance between corresponding peak pairs. */
static double sift_psqd_avg(const double *prx, const double *pry,
                            const double *psx, const double *psy,
                            long m, double *tmp)
{
    long i;
    if (m == 0)
        return 0.0;
    for (i = 0; i < m; i++) {
        double dx = prx[i] - psx[i];
        double dy = pry[i] - psy[i];
        tmp[i] = dx * dx + dy * dy;
    }
    return seq_mean(tmp, m);
}
"""


def _feature_block(version: DetectorVersion) -> str:
    """The per-window feature statements, in the extractor's array order."""
    if version is DetectorVersion.ORIGINAL:
        return """\
        sift_grid(nx, ny, n_samples, grid);
        sift_colmean(grid, SIFT_GN, SIFT_GN, colavg);
        f[0] = sift_sfi(grid, tmp);
        f[1] = sift_std(colavg, SIFT_GN, tmp);
        f[2] = sift_trapz(colavg, SIFT_GN, tmp);
        for (i = 0; i < nr; i++) {
            px[i] = nx[ri[i]];
            py[i] = ny[ri[i]];
        }
        f[3] = sift_angle_avg(px, py, nr, tmp);
        f[5] = sift_dist_avg(px, py, nr, tmp);
        for (i = 0; i < nsk; i++) {
            px[i] = nx[si[i]];
            py[i] = ny[si[i]];
        }
        f[4] = sift_angle_avg(px, py, nsk, tmp);
        f[6] = sift_dist_avg(px, py, nsk, tmp);
        npair = sift_pair_peaks(ri, nr, si, nsk, max_lag[w], ss,
                                nx, ny, prx, pry, psx, psy);
        f[7] = sift_pdist_avg(prx, pry, psx, psy, npair, tmp);
"""
    if version is DetectorVersion.SIMPLIFIED:
        return """\
        sift_grid(nx, ny, n_samples, grid);
        sift_colmean(grid, SIFT_GN, SIFT_GN, colavg);
        f[0] = sift_sfi(grid, tmp);
        f[1] = sift_var(colavg, SIFT_GN, tmp);
        f[2] = sift_auc_comp(colavg, SIFT_GN, tmp);
        for (i = 0; i < nr; i++) {
            px[i] = nx[ri[i]];
            py[i] = ny[ri[i]];
        }
        f[3] = sift_slope_avg(px, py, nr, tmp);
        f[5] = sift_sqd_avg(px, py, nr, tmp);
        for (i = 0; i < nsk; i++) {
            px[i] = nx[si[i]];
            py[i] = ny[si[i]];
        }
        f[4] = sift_slope_avg(px, py, nsk, tmp);
        f[6] = sift_sqd_avg(px, py, nsk, tmp);
        npair = sift_pair_peaks(ri, nr, si, nsk, max_lag[w], ss,
                                nx, ny, prx, pry, psx, psy);
        f[7] = sift_psqd_avg(prx, pry, psx, psy, npair, tmp);
"""
    return """\
        for (i = 0; i < nr; i++) {
            px[i] = nx[ri[i]];
            py[i] = ny[ri[i]];
        }
        f[0] = sift_slope_avg(px, py, nr, tmp);
        f[2] = sift_sqd_avg(px, py, nr, tmp);
        for (i = 0; i < nsk; i++) {
            px[i] = nx[si[i]];
            py[i] = ny[si[i]];
        }
        f[1] = sift_slope_avg(px, py, nsk, tmp);
        f[3] = sift_sqd_avg(px, py, nsk, tmp);
        npair = sift_pair_peaks(ri, nr, si, nsk, max_lag[w], ss,
                                nx, ny, prx, pry, psx, psy);
        f[4] = sift_psqd_avg(prx, pry, psx, psy, npair, tmp);
"""


def generate_hot_path_source(
    version: DetectorVersion | str,
    grid_n: int,
    coef: np.ndarray,
    intercept: float,
    mean: np.ndarray,
    scale: np.ndarray,
) -> str:
    """Generate the scoring translation unit for one fitted linear model.

    Parameters mirror the fitted detector: ``coef``/``intercept`` are the
    SVM primal weights, ``mean``/``scale`` the standardizer statistics.
    The scaler is *not* folded into the weights -- the reference path
    standardizes first and folding would re-round -- so the generated code
    computes ``z = (f - mean) / scale`` then ``dot(z, coef) + intercept``
    with NumPy's exact association orders.
    """
    if isinstance(version, str):
        version = DetectorVersion.from_name(version)
    grid_n = int(grid_n)
    if version.uses_matrix_features and grid_n < 2:
        raise ValueError("grid_n must be >= 2 for matrix-feature versions")
    coef = np.asarray(coef, dtype=np.float64).reshape(-1)
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    scale = np.asarray(scale, dtype=np.float64).reshape(-1)
    n_features = version.n_features
    for name, arr in (("coef", coef), ("mean", mean), ("scale", scale)):
        if arr.shape != (n_features,):
            raise ValueError(
                f"{name} has shape {arr.shape}, expected ({n_features},) "
                f"for the {version.value} version"
            )
    if not (
        np.all(np.isfinite(coef))
        and np.all(np.isfinite(mean))
        and np.all(np.isfinite(scale))
        and np.isfinite(intercept)
    ):
        raise ValueError("model constants must be finite")

    original = version is DetectorVersion.ORIGINAL
    matrix = version.uses_matrix_features
    dot = "sift_dot8" if n_features == 8 else "sift_dot5"

    includes = ["#include <stdlib.h>"]
    if original:
        includes.append("#include <math.h>")
        includes.append("#include <immintrin.h>")

    defines = [f"#define SIFT_NF {n_features}"]
    if matrix:
        defines.append(f"#define SIFT_GN {grid_n}")
        defines.append(f"#define SIFT_G2 {grid_n * grid_n}")
    if not original:
        eps = c_double_literal(1.0 / (1 << 14))
        defines.append(f"#define SIFT_EPS {eps}")

    parts = [
        "/* Auto-generated native SIFT scoring hot path -- do not edit.\n"
        f" * version={version.value} grid_n={grid_n} n_features={n_features}\n"
        " * Bit-parity contract with the NumPy reference pipeline; compile\n"
        " * with -ffp-contract=off (FMA fusion re-rounds differently).\n"
        " */",
        "\n".join(includes),
        "\n".join(defines),
        _literal_array("sift_coef", coef),
        _literal_array("sift_mean", mean),
        _literal_array("sift_scale", scale),
        f"static const double sift_bias = {c_double_literal(float(intercept))};\n",
        _SEQ_MEAN,
        _NORM01,
        _PAIRING,
    ]
    if matrix:
        parts.append(_PAIRWISE_SUM)
        parts.append(_COLMEAN)
        parts.append(_MATRIX_HELPERS)
    if original:
        parts.append(_ATAN2)
        parts.append(_STD_HELPER)
        parts.append(_GEOM_ORIGINAL)
    else:
        if matrix:
            parts.append(_VAR_HELPER)
        parts.append(_GEOM_SIMPLIFIED)
    parts.append(_DOT8 if n_features == 8 else _DOT5)

    grid_doubles = "tmax + SIFT_G2 + SIFT_GN" if matrix else "n_samples"
    tmax_decl = (
        "    long tmax = n_samples > SIFT_G2 ? n_samples : SIFT_G2;\n"
        if matrix
        else ""
    )
    grid_ptrs = (
        "    double *grid = tmp + tmax;\n"
        "    double *colavg = grid + SIFT_G2;\n"
        if matrix
        else ""
    )
    atan2_guard = (
        "    if (sift_atan2_ptr == 0)\n        return 2;\n" if original else ""
    )

    parts.append(
        f"""\
/* Score n_windows equal-length windows; returns 0 on success.
 * ecg/abp are row-major (n_windows, n_samples); peak indexes arrive as
 * CSR-style (values, offsets) pairs; out receives one decision value per
 * window.  Scratch is one allocation per call, so the entry point is
 * re-entrant. */
long sift_score_windows(const double *ecg, const double *abp,
                        long n_windows, long n_samples,
                        const long *r_idx, const long *r_off,
                        const long *s_idx, const long *s_off,
                        const long *max_lag, double *out)
{{
    double *buf;
    long *ss;
    double *nx, *ny, *tmp, *px, *py, *prx, *pry, *psx, *psy;
    long w, i, npair;
{tmax_decl}{atan2_guard}\
    buf = (double *)malloc(sizeof(double) * (8 * n_samples + {grid_doubles}));
    ss = (long *)malloc(sizeof(long) * (n_samples > 0 ? n_samples : 1));
    if (buf == 0 || ss == 0) {{
        free(buf);
        free(ss);
        return 1;
    }}
    nx = buf;
    ny = nx + n_samples;
    px = ny + n_samples;
    py = px + n_samples;
    prx = py + n_samples;
    pry = prx + n_samples;
    psx = pry + n_samples;
    psy = psx + n_samples;
    tmp = psy + n_samples;
{grid_ptrs}\
    for (w = 0; w < n_windows; w++) {{
        const double *e = ecg + w * n_samples;
        const double *a = abp + w * n_samples;
        const long *ri = r_idx + r_off[w];
        const long *si = s_idx + s_off[w];
        long nr = r_off[w + 1] - r_off[w];
        long nsk = s_off[w + 1] - s_off[w];
        double f[SIFT_NF];
        long k;
        sift_norm01(e, n_samples, ny);
        sift_norm01(a, n_samples, nx);
{_feature_block(version)}\
        for (k = 0; k < SIFT_NF; k++)
            f[k] = (f[k] - sift_mean[k]) / sift_scale[k];
        out[w] = {dot}(f, sift_coef) + sift_bias;
    }}
    free(buf);
    free(ss);
    return 0;
}}
"""
    )
    return "\n".join(parts)
