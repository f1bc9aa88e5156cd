/*
 * Per-window statistics of the SQI gate (bound by repro.native.sqi).
 *
 * For each of a window's two channels one call computes exactly the six
 * numbers SignalQualityIndex._channel_scores gets from NumPy:
 *
 *   out[0], out[1]  min and max of the samples (NaN if any sample is NaN);
 *   out[2]          samples at or beyond the 1% extreme thresholds, with
 *                   the thresholds computed in double and rounded into the
 *                   sample type, as NumPy rounds a Python float;
 *   out[3]          1 if the first-difference energy holds a NaN, else 0;
 *   out[4]          np.median of the energy: the middle rank, or the mean
 *                   of the two middle ranks (low_half, half), in the
 *                   sample type;
 *   out[5]          np.percentile(energy, 98), the linear method's lerp
 *                   between ranks below and above with weight gamma, in
 *                   the sample type.
 *
 * The ECG's six come first, then the ABP's.  The median and percentile
 * are left unset when out[3] is 1: the gate scores such a channel 0.
 *
 * Every step runs in the samples' own type (float or double).  Compile
 * with -ffp-contract=off: a fused multiply-add in the lerp would round
 * once where NumPy rounds twice.
 *
 * Selection.  Energies are squares, so (without NaN) they are +0.0 or
 * positive, and the IEEE bit pattern of a non-negative float orders like
 * its value.  The four ranks are selected together on those integer keys
 * by bucket passes: a histogram over the key range, then one scatter
 * that orders the keys by bucket, so every rank lies in a known bucket.
 * A bucket holding a wanted rank is sorted if it is small, or split by
 * the same pass if not.  A pass over more than SQI_SORT_MAX keys uses at
 * least 64 buckets and narrows the key range by a factor of 32, so the
 * work is bounded whatever the data.
 *
 * The caller's buffers are read only; working memory is allocated per
 * call, and nothing here keeps state between calls.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Buckets of at most this many keys are sorted outright. */
#define SQI_SORT_MAX 32

/* A pass over c keys uses about c buckets, at most 2^SQI_MAX_BITS. */
#define SQI_MAX_BITS 9

/* Statistics per channel, and ranks selected per channel. */
#define SQI_STATS 6
#define SQI_RANKS 4

static void sort_keys(uint64_t *keys, long n)
{
    for (long i = 1; i < n; i++) {
        uint64_t key = keys[i];
        long j = i;
        for (; j > 0 && keys[j - 1] > key; j--) {
            keys[j] = keys[j - 1];
        }
        keys[j] = key;
    }
}

/*
 * a[start..end) holds, in any order, the keys of sorted positions start
 * to end - 1, all within [lo, hi].  Writes the key at sorted position
 * pos[j] to value[j] for the npos positions (all in [start, end)).
 * b[start..end) is scratch, and count holds 2^SQI_MAX_BITS counters.
 */
static void select_keys(uint64_t *a, uint64_t *b, long start, long end,
                        uint64_t lo, uint64_t hi, const long *pos, int npos,
                        uint64_t *value, uint32_t *count)
{
    long n = end - start;
    if (lo == hi) {
        for (int j = 0; j < npos; j++) {
            value[j] = lo;
        }
        return;
    }
    if (n <= SQI_SORT_MAX) {
        sort_keys(a + start, n);
        for (int j = 0; j < npos; j++) {
            value[j] = a[pos[j]];
        }
        return;
    }

    int bits = 6;
    while (bits < SQI_MAX_BITS && (1L << bits) < n) {
        bits++;
    }
    int shift = 0;
    while ((hi - lo) >> shift >> bits) {
        shift++;
    }
    long buckets = (long)((hi - lo) >> shift) + 1;
    memset(count, 0, (size_t)buckets * sizeof *count);
    /* Four streams a quarter apart: neighbouring energies often share
     * a bucket, and one stream would wait on each counter's last store. */
    long q = n / 4;
    for (long i = start; i < start + q; i++) {
        count[(a[i] - lo) >> shift]++;
        count[(a[i + q] - lo) >> shift]++;
        count[(a[i + 2 * q] - lo) >> shift]++;
        count[(a[i + 3 * q] - lo) >> shift]++;
    }
    for (long i = start + 4 * q; i < end; i++) {
        count[(a[i] - lo) >> shift]++;
    }
    /* Counts become each bucket's first slot; the scatter leaves each
     * one at the bucket's end. */
    uint32_t next = (uint32_t)start;
    for (long k = 0; k < buckets; k++) {
        uint32_t c = count[k];
        count[k] = next;
        next += c;
    }
    for (long i = start; i < start + q; i++) {
        b[count[(a[i] - lo) >> shift]++] = a[i];
        b[count[(a[i + q] - lo) >> shift]++] = a[i + q];
        b[count[(a[i + 2 * q] - lo) >> shift]++] = a[i + 2 * q];
        b[count[(a[i + 3 * q] - lo) >> shift]++] = a[i + 3 * q];
    }
    for (long i = start + 4 * q; i < end; i++) {
        b[count[(a[i] - lo) >> shift]++] = a[i];
    }

    /* The bucket of each position: the first whose end lies past it. */
    long first[SQI_RANKS], last[SQI_RANKS];
    for (int j = 0; j < npos; j++) {
        long k = 0, top = buckets - 1;
        while (k < top) {
            long mid = (k + top) / 2;
            if ((long)count[mid] > pos[j]) {
                top = mid;
            } else {
                k = mid + 1;
            }
        }
        first[j] = k == 0 ? start : (long)count[k - 1];
        last[j] = (long)count[k];
    }
    /* Split each bucket by its own pass, with every position in it. */
    for (int j = 0; j < npos; j++) {
        if (first[j] < 0) {
            continue; /* done with an earlier position's bucket */
        }
        long sub_pos[SQI_RANKS];
        int index[SQI_RANKS], k = 0;
        long sub_first = first[j], sub_last = last[j];
        for (int i = j; i < npos; i++) {
            if (first[i] == sub_first) {
                sub_pos[k] = pos[i];
                index[k++] = i;
                first[i] = -1;
            }
        }
        uint64_t sub_lo = b[sub_first], sub_hi = b[sub_first];
        for (long i = sub_first; i < sub_last; i++) {
            sub_lo = b[i] < sub_lo ? b[i] : sub_lo;
            sub_hi = b[i] > sub_hi ? b[i] : sub_hi;
        }
        uint64_t sub_value[SQI_RANKS];
        select_keys(b, a, sub_first, sub_last, sub_lo, sub_hi, sub_pos, k,
                    sub_value, count);
        for (int i = 0; i < k; i++) {
            value[index[i]] = sub_value[i];
        }
    }
}

/*
 * One channel's statistics for sample type T, whose bit pattern is read
 * as unsigned type U.  keys and work hold n - 1 keys each.
 *
 * The sample extremes are tracked in 8 lanes: the order in which lanes
 * meet cannot change a minimum or maximum of non-NaN values.  Every
 * sample enters a difference (n >= 2), so a NaN sample makes a NaN
 * energy, and the samples are searched for NaN only then.
 */
#define SQI_CHANNEL(NAME, T, U)                                              \
    static void NAME(const T *x, long n, const long *ranks, double gamma,    \
                     uint64_t *keys, uint64_t *work, uint32_t *count,        \
                     double *out)                                            \
    {                                                                        \
        long m = n - 1;                                                      \
        int energy_nan = 0;                                                  \
        for (long i = 0; i < m; i++) {                                       \
            T d = x[i + 1] - x[i];                                           \
            T e = d * d;                                                     \
            U bits;                                                          \
            memcpy(&bits, &e, sizeof bits);                                  \
            keys[i] = bits;                                                  \
            energy_nan |= e != e;                                            \
        }                                                                    \
                                                                             \
        T lo[8], hi[8];                                                      \
        for (int k = 0; k < 8; k++) {                                        \
            lo[k] = hi[k] = x[0];                                            \
        }                                                                    \
        long i = 0;                                                          \
        for (; i + 8 <= n; i += 8) {                                         \
            for (int k = 0; k < 8; k++) {                                    \
                T v = x[i + k];                                              \
                lo[k] = v < lo[k] ? v : lo[k];                               \
                hi[k] = v > hi[k] ? v : hi[k];                               \
            }                                                                \
        }                                                                    \
        for (; i < n; i++) {                                                 \
            lo[0] = x[i] < lo[0] ? x[i] : lo[0];                             \
            hi[0] = x[i] > hi[0] ? x[i] : hi[0];                             \
        }                                                                    \
        for (int k = 1; k < 8; k++) {                                        \
            lo[0] = lo[k] < lo[0] ? lo[k] : lo[0];                           \
            hi[0] = hi[k] > hi[0] ? hi[k] : hi[0];                           \
        }                                                                    \
        int nan = 0;                                                         \
        for (i = 0; energy_nan && i < n; i++) {                              \
            nan |= x[i] != x[i];                                             \
        }                                                                    \
        double low = nan ? (double)NAN : (double)lo[0];                      \
        double high = nan ? (double)NAN : (double)hi[0];                     \
        double span = high - low;                                            \
        T lower = (T)(low + 0.01 * span);                                    \
        T upper = (T)(high - 0.01 * span);                                   \
        int pinned = 0;                                                      \
        for (i = 0; i < n; i++) {                                            \
            pinned += (x[i] <= lower) | (x[i] >= upper);                     \
        }                                                                    \
        out[0] = low;                                                        \
        out[1] = high;                                                       \
        out[2] = (double)pinned;                                             \
        out[3] = energy_nan;                                                 \
        if (energy_nan) {                                                    \
            return;                                                          \
        }                                                                    \
                                                                             \
        /* Rounding is monotone, so no energy exceeds the rounded square  */ \
        /* of the rounded span: its key bounds the keys from above.       */ \
        T width = hi[0] - lo[0];                                             \
        T bound = width * width;                                             \
        U key_hi;                                                            \
        memcpy(&key_hi, &bound, sizeof key_hi);                              \
        uint64_t key[SQI_RANKS];                                             \
        select_keys(keys, work, 0, m, 0, key_hi, ranks, SQI_RANKS, key,      \
                    count);                                                  \
        T v[SQI_RANKS];                                                      \
        for (int k = 0; k < SQI_RANKS; k++) {                                \
            U bits = (U)key[k];                                              \
            memcpy(&v[k], &bits, sizeof bits);                               \
        }                                                                    \
        /* ranks: low_half, half, below, above */                            \
        T median = ranks[0] == ranks[1] ? v[1] : (v[0] + v[1]) / (T)2;       \
        T step = v[3] - v[2];                                                \
        T p98 = gamma >= 0.5 ? v[3] - step * (T)(1.0 - gamma)                \
                             : v[2] + step * (T)gamma;                       \
        out[4] = (double)median;                                             \
        out[5] = (double)p98;                                                \
    }

SQI_CHANNEL(channel_f32, float, uint32_t)
SQI_CHANNEL(channel_f64, double, uint64_t)

/*
 * Both channels of an n-sample window (n >= 2), at the energy ranks
 * low_half, half, below and above.  Returns 0, or -1 when working memory
 * cannot be allocated (out is then left unset).
 */
#define SQI_ENTRY(NAME, CHANNEL, T)                                          \
    long NAME(const T *ecg, const T *abp, long n, long low_half, long half,  \
              long below, long above, double gamma, double *out)             \
    {                                                                        \
        const long ranks[SQI_RANKS] = {low_half, half, below, above};        \
        size_t m = (size_t)(n - 1);                                          \
        uint64_t *keys = malloc(2 * m * sizeof *keys);                       \
        uint32_t *count = malloc(sizeof *count << SQI_MAX_BITS);             \
        if (keys == NULL || count == NULL) {                                 \
            free(keys);                                                      \
            free(count);                                                     \
            return -1;                                                       \
        }                                                                    \
        CHANNEL(ecg, n, ranks, gamma, keys, keys + m, count, out);           \
        CHANNEL(abp, n, ranks, gamma, keys, keys + m, count,                 \
                out + SQI_STATS);                                            \
        free(keys);                                                          \
        free(count);                                                         \
        return 0;                                                            \
    }

SQI_ENTRY(sift_sqi_f32, channel_f32, float)
SQI_ENTRY(sift_sqi_f64, channel_f64, double)
