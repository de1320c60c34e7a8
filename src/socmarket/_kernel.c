/* The incremental engine's kernel over one struct, `market`, which the
 * engine binds once: the update after one price change, the loser tree, and
 * the step loop over a block of price cuts with its activity count.
 *
 * The activity counts, at every step, the profits below each threshold
 * f0[k] * mean price of a grid.  The cuts only lower the mean price, so
 * between relistings, while the mean price lies in [mp_low, mp], sorted
 * threshold s stays in a band [lo[s], hi[s]].  Each agent sits in a bucket,
 * the number of sorted thresholds whose band top its profit is not below: a
 * profit below every band from that bucket on counts in hist[bucket], and
 * one inside a band goes on a short band list, whose members alone are
 * compared with the thresholds at each step.  A row is then a prefix sum of
 * hist plus the band members' counts, integer sums equal to a compare of
 * every profit.
 *
 * After one price change socm_update recomputes, phase by phase, production
 * and wants, demand, traded and profit over the changed agent's plan row,
 * with market.evaluate_market's arithmetic in its order, so the two give
 * the same bits.  Build it without contraction or reassociation of
 * floating-point operations (-ffp-contract=off, never -ffast-math): a fused
 * multiply-add would change the bits.
 *
 * The kernel also writes and parses run records: socm_write_rows formats
 * a block of record rows as repr writes each value, and socm_read_rows
 * reads a record's rows back as np.loadtxt does.  Where either declines,
 * the caller uses repr or np.loadtxt.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TWO_THIRDS (2.0 / 3.0) /* the same double as market.TWO_THIRDS */

typedef struct {
    /* engine state, one slot per agent (per edge for wants) */
    double *p, *wants, *qp, *qW, *qt, *profit;
    /* agent i buys over edges sup_ptr[i] .. sup_ptr[i + 1] - 1 with weight
       w[e] from supplier sup_idx[e]; good j is sold over the edges
       in_idx[in_ptr[j] .. in_ptr[j + 1] - 1] */
    const double *w;
    const int64_t *sup_ptr, *sup_idx, *in_ptr, *in_idx;
    /* phase k of agent c's plan is plan[plan_ptr[4c + k] .. plan_ptr[4c + k + 1] - 1] */
    const int64_t *plan_ptr;
    const int32_t *plan;
    /* loser tree over the n profits: node v (1 <= v < size) holds the
       winner of nodes 2v and 2v + 1, leaf size + i holds agent i, and the
       leaves past n hold -1; size is the least power of two >= n */
    int32_t *tree;
    int64_t n, size;
    /* sum of the prices, kept by the cuts */
    double psum;
    /* one call of socm_advance: step j cuts the loser's price by the
       factor 1 - eta_max * u[j] and writes loser[j], min_profit[j] and
       mean_price[j]; u, loser, min_profit, mean_price and activity hold
       the last call's addresses after it returns, and the engine's one
       caller (Simulation._kernel_block) sets them before each call */
    const double *u;
    int32_t *loser;
    double *min_profit, *mean_price;
    double eta_max;
    /* the mean price below which the prices are renormalised */
    double level;
    /* activity[j * nf0 + k] counts the profits below f0[k] * mean price,
       for a grid f0 of nf0 thresholds */
    int64_t nf0;
    int32_t *activity;
    /* the sorted grid: sorted threshold s is f0[order[s]], held in
       sorted_f0[s] (a NaN as -inf, which no profit is below either), and
       lies in [lo[s], hi[s]] while the mean price lies in [mp_low, mp];
       bound is hi[nf0 - 1], the top of every band */
    const int32_t *order;
    const double *sorted_f0;
    double *lo, *hi;
    double bound, mp_low;
    /* agent i's bucket[i] is the number of sorted thresholds whose hi it is
       not below (nf0 for a NaN profit); hist[b] counts the agents of bucket
       b outside every band, each below every threshold from b on, and
       band[0 .. nband - 1] lists the others, with slot[i] agent i's place
       there or -1 */
    int32_t *hist, *bucket, *band, *slot;
    int64_t nband;
} market;

/* The winner of a and b, where a's leaves lie left of b's: b wins only with
   a smaller profit, or a NaN against a number, so the root is np.argmin's
   answer (the lowest index among equal minima, the first NaN if any).  It
   selects with a mask, not a branch: the outcome follows the profits, and
   a branch on it is often mispredicted in the tree's repairs. */
static int32_t winner(const double *profit, int32_t a, int32_t b)
{
    double x, y;
    int32_t take;
    if (b < 0)
        return a;
    x = profit[a];
    y = profit[b];
    take = -(int32_t)((y < x) | ((y != y) & (x == x)));
    return (b & take) | (a & ~take);
}

/* Replay every match of the loser tree, from the leaves up. */
static void replay(const market *m)
{
    int32_t *tree = m->tree;
    int64_t v;

    for (v = m->size - 1; v >= 1; v--)
        tree[v] = winner(m->profit, tree[2 * v], tree[2 * v + 1]);
}

/* Fill the loser tree from the profits. */
void socm_tree_build(const market *m)
{
    int64_t v, size = m->size;

    for (v = 0; v < size; v++)
        m->tree[size + v] = v < m->n ? (int32_t)v : -1;
    replay(m);
}

/* Repair the loser tree after the profits of leaves[0 .. count - 1] changed.
   Each leaf replays its path up to the node where it meets the next leaf's,
   and the last leaf climbs to the root: a node's last replay comes from the
   last leaf below it, after its children's, in any order and with repeats,
   and ascending leaves replay each of their ancestors once. */
void socm_tree_repair(const market *m, const int32_t *leaves, int64_t count)
{
    int32_t *tree = m->tree;
    int64_t k, u, w, size = m->size;

    for (k = 0; k < count; k++)
        for (u = (size + leaves[k]) >> 1, w = k + 1 < count ? (size + leaves[k + 1]) >> 1 : 0;
             u != w; u >>= 1, w >>= 1)
            tree[u] = winner(m->profit, tree[2 * u], tree[2 * u + 1]);
}

/* Recompute, over the phases of agent c's plan row, production and wants,
   then demand, traded and profit, in that order, and repair the loser tree
   over the profits: along their paths (socm_tree_repair), or all at once
   where the leaf-to-root paths hold more matches than the tree (dense
   plans, such as ER100's, where a cut recomputes most profits); returns
   the profit count. */
int socm_update(const market *m, int c)
{
    const int64_t *b = m->plan_ptr + 4 * (int64_t)c;
    const int32_t *agents = m->plan;
    const double *p = m->p, *w = m->w;
    double *wants = m->wants, *qp = m->qp, *qW = m->qW, *qt = m->qt;
    const int64_t *sup_ptr = m->sup_ptr, *sup_idx = m->sup_idx;
    int64_t k, e, v, levels = 0;

    for (k = b[0]; k < b[1]; k++) {
        int32_t i = agents[k];
        double pi = p[i], tot = 0.0, q;
        for (e = sup_ptr[i]; e < sup_ptr[i + 1]; e++) {
            double pr = w[e] * (pi / p[sup_idx[e]]);
            wants[e] = pr;
            tot += sqrt(pr);
        }
        q = pow(tot, TWO_THIRDS);
        qp[i] = q;
        for (e = sup_ptr[i]; e < sup_ptr[i + 1]; e++)
            wants[e] = wants[e] * q;
    }
    for (k = b[1]; k < b[2]; k++) {
        int32_t j = agents[k];
        double acc = 0.0;
        for (e = m->in_ptr[j]; e < m->in_ptr[j + 1]; e++)
            acc += wants[m->in_idx[e]];
        qW[j] = acc;
    }
    for (k = b[2]; k < b[3]; k++) {
        int32_t j = agents[k];
        qt[j] = qp[j] < qW[j] ? qp[j] : qW[j];
    }
    for (k = b[3]; k < b[4]; k++) {
        int32_t i = agents[k];
        double acc = 0.0;
        for (e = sup_ptr[i]; e < sup_ptr[i + 1]; e++) {
            int64_t j = sup_idx[e];
            double dj = qW[j];
            if (dj > 0.0)
                acc += (wants[e] / dj) * (p[j] * qt[j]);
        }
        m->profit[i] = p[i] * qt[i] - acc;
    }
    for (v = m->size; v > 1; v >>= 1)
        levels++;
    if ((b[4] - b[3]) * levels >= m->size)
        replay(m);
    else
        socm_tree_repair(m, agents + b[3], b[4] - b[3]);
    return (int)(b[4] - b[3]);
}

/* The number of leading edge[0 .. count - 1] that x is not below, for
   edges that never decrease and an x that is not NaN. */
static int64_t passed(const double *edge, int64_t count, double x)
{
    int64_t lo = 0, hi = count, mid;

    while (lo < hi) {
        mid = (lo + hi) / 2;
        if (x >= edge[mid])
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Put agent i, which is in no bucket, into the bucket of its profit: in
   hist if the profit lies below every band from its bucket on, else on the
   band list. */
static void put(market *m, int32_t i)
{
    double x = m->profit[i];
    int64_t k = m->nf0, b = x < m->bound ? passed(m->hi, k, x) : k;

    m->bucket[i] = (int32_t)b;
    if (b == k || x < m->lo[b]) {
        m->hist[b]++;
    } else {
        m->slot[i] = (int32_t)m->nband;
        m->band[m->nband++] = i;
    }
}

/* Move agent i to the bucket of its new profit.  A profit at or above bound
   that stays in bucket nf0 returns at once; a band member leaves the list by
   moving the last member into its place (the counts are integer sums, so
   the order is free). */
static void place(market *m, int32_t i)
{
    int32_t at = m->slot[i], last;

    if (at < 0) {
        if (m->bucket[i] == m->nf0 && !(m->profit[i] < m->bound))
            return;
        m->hist[m->bucket[i]]--;
    } else {
        last = m->band[--m->nband];
        m->band[at] = last;
        m->slot[last] = at;
        m->slot[i] = -1;
    }
    put(m, i);
}

/* Bucket every agent at mean price mp.  The cuts only lower the mean price,
   and a threshold f0 * mp' at any mp' in [mp_low, mp] lies between f0 * mp
   and f0 * mp_low, so it stays in its band until the mean price falls 0.1 %
   below mp.  The bands' edges never decrease with s, as the sorted
   thresholds do not at any positive mean price. */
static void relist(market *m, double mp)
{
    int64_t i, s, k = m->nf0;

    m->mp_low = mp * (1.0 - 1e-3);
    for (s = 0; s < k; s++) {
        double a = m->sorted_f0[s] * mp, b = m->sorted_f0[s] * m->mp_low;
        m->lo[s] = fmin(a, b);
        m->hi[s] = fmax(a, b);
    }
    m->bound = k ? m->hi[k - 1] : -INFINITY;
    memset(m->hist, 0, (size_t)(k + 1) * sizeof *m->hist);
    m->nband = 0;
    for (i = 0; i < m->n; i++) {
        m->slot[i] = -1;
        put(m, (int32_t)i);
    }
}

/* Count step j's row of activity, the profits below each threshold
   f0[k] * mp: sorted threshold s counts hist[0 .. s] and the band members
   below it.  A band member of bucket b lies below thresholds b .. nf0 - 1
   from the first it is below on, as they never decrease; the row first
   holds where each count starts, then their prefix sums. */
static void count_activity(const market *m, int j, double mp)
{
    int32_t *row = m->activity + (int64_t)j * m->nf0, total = 0;
    const int32_t *order = m->order;
    int64_t i, s, k = m->nf0;

    for (s = 0; s < k; s++)
        row[order[s]] = m->hist[s];
    for (i = 0; i < m->nband; i++) {
        double x = m->profit[m->band[i]];
        for (s = m->bucket[m->band[i]]; s < k && !(x < m->sorted_f0[s] * mp); s++)
            ;
        if (s < k)
            row[order[s]]++;
    }
    for (s = 0; s < k; s++) {
        total += row[order[s]];
        row[order[s]] = total;
    }
}

/* Run steps from .. count - 1 of a block.
 *
 * Step j first stops the loop if the mean price psum / n is below the
 * level (except at step `from` when `renormed` is set: the caller has just
 * renormalised), then writes the loser, its profit and the mean price to
 * loser[j], min_profit[j] and mean_price[j], counts the activity if
 * `activity` is set, and cuts the price.  The agents are bucketed anew
 * on entry (the caller may have changed any profit) and whenever the mean
 * price falls below mp_low, and each update places the agents of its profit
 * phase.  Returns the step it stopped before, or -1 - j if step j's
 * new price is not positive (nothing of step j is done).
 */
int socm_advance(market *m, int from, int count, int renormed)
{
    double *p = m->p, *profit = m->profit;
    int64_t k;
    int j;

    for (j = from; j < count; j++) {
        double mp = m->psum / (double)m->n, old, cut;
        int32_t c = m->tree[1];

        if (mp < m->level && !(renormed && j == from))
            return j;
        old = p[c];
        cut = old * (1.0 - m->eta_max * m->u[j]);
        if (!(cut > 0.0))
            return -1 - j;
        m->loser[j] = c;
        m->min_profit[j] = profit[c];
        m->mean_price[j] = mp;
        if (m->activity) {
            if (j == from || !(mp >= m->mp_low))
                relist(m, mp);
            count_activity(m, j, mp);
        }
        m->psum += cut - old;
        p[c] = cut;
        socm_update(m, c);
        if (m->activity)
            for (k = m->plan_ptr[4 * c + 3]; k < m->plan_ptr[4 * c + 4]; k++)
                place(m, m->plan[k]);
    }
    return count;
}

/* ---------------------------------------------------------------------
 * Run records: the text rows RunRecord.save_text writes and load_text
 * reads, byte for byte and bit for bit as repr and np.loadtxt.
 */

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* 10^k for k = 0 .. 22; m 10^22 < 2^127 for a 53-bit m */
#define E19 ((u128)UINT64_C(10000000000000000000))
static const u128 POW10[23] = {
    1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000,
    1000000000, 10000000000, 100000000000, 1000000000000, 10000000000000,
    100000000000000, 1000000000000000, 10000000000000000, 100000000000000000,
    1000000000000000000, E19, E19 * 10, E19 * 100, E19 * 1000};
#endif

/* Write the digits of v, and return their count. */
static int put_u64(char *out, uint64_t v)
{
    char tmp[20];
    int n = 0, k;

    do {
        tmp[n++] = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    for (k = 0; k < n; k++)
        out[k] = tmp[n - 1 - k];
    return n;
}

static int put_i64(char *out, int64_t v)
{
    if (v < 0) {
        out[0] = '-';
        return 1 + put_u64(out + 1, (uint64_t)0 - (uint64_t)v);
    }
    return put_u64(out, (uint64_t)v);
}

#ifdef __SIZEOF_INT128__
/* Whether N / 10^k reads back as x = m / 2^s, given scaled = m 10^k and
 * p10 = 10^k: the decimal lies above x by less than half the gap to x's
 * upper neighbour, or below x by less than half the gap to its lower one
 * (a quarter of the upper gap when x is a power of two), or exactly half
 * a gap away when m is even (a tie reads as the even significand).
 */
static int reads_back(u128 n, u128 scaled, int s, u128 p10, int even, int pow2)
{
    u128 d = n << s, gap;

    gap = d >= scaled ? 2 * (d - scaled) : (pow2 ? 4 : 2) * (scaled - d);
    return gap < p10 || (gap == p10 && even);
}

/* The numerator N of the decimal N / 10^k nearest x = m / 2^s that reads
 * back as x: round(m 10^k / 2^s), or the next above below a power of two;
 * 0 if neither reads back.  *tie is set when m 10^k / 2^s lies halfway
 * between two numerators. */
static u128 nearest(uint64_t m, int s, int k, int pow2, int *tie)
{
    u128 p10 = POW10[k], scaled = (u128)m * p10, half = (u128)1 << (s - 1);
    u128 n = (scaled + half) >> s;
    int even = (m & 1) == 0;

    *tie = (scaled & ((half << 1) - 1)) == half;
    if (reads_back(n, scaled, s, p10, even, pow2))
        return n;
    if (pow2 && n << s < scaled && reads_back(n + 1, scaled, s, p10, even, pow2))
        return n + 1;
    return 0;
}
#endif

/* Write x as repr writes it, and return the bytes written, or 0 where the
 * fast path declines: x not finite, x nonzero with |x| outside
 * [1e-4, 1e15) (below 1e-4 repr writes an exponent), or an exact rounding
 * tie, which repr breaks to an even last digit.
 *
 * repr writes the shortest decimal that reads back as x (Steele & White
 * 1990, Gay 1990), and the nearest to x among those.  In this range that
 * decimal has the fewest fraction digits k; with x = m / 2^s and m the
 * 53-bit significand, the decimals with k fraction digits nearest x are
 * N = round(m 10^k / 2^s) and, below a power of two whose lower gap is
 * the smaller, N + 1.  Reading back is monotone in k, so k is found by
 * bisection over [0, 22].
 */
static int put_double(char *out, double x)
{
#ifdef __SIZEOF_INT128__
    uint64_t bits, m;
    u128 n, best = 0;
    double a = fabs(x);
    int s, k, lo = 0, hi = 23, probe, len = 0, digits, pow2, tie, best_tie = 0;
    char num[24];

    if (x < 0 || (x == 0.0 && signbit(x)))
        out[len++] = '-';
    if (a == 0.0) {
        memcpy(out + len, "0.0", 3);
        return len + 3;
    }
    if (!(a >= 1e-4 && a < 1e15))
        return 0;
    memcpy(&bits, &x, sizeof bits);
    m = bits & ((UINT64_C(1) << 52) - 1);
    pow2 = m == 0;
    m |= UINT64_C(1) << 52;
    s = 1075 - (int)((bits >> 52) & 0x7ff); /* 3 <= s <= 67 in this range */
    /* the least k that reads back lies in [lo, hi] (hi = 23: none known);
       most doubles need 16 or 17 significant digits, so the first probe is
       near 16 digits and the second one digit either side, before
       bisection (any first k in [0, 22] finds the same least k) */
    k = 15 - (52 - s) * 3 / 10;
    for (probe = 0; lo < hi; probe++) {
        if (k < lo || k >= hi)
            k = (lo + hi) / 2;
        n = nearest(m, s, k, pow2, &tie);
        if (n) {
            hi = k;
            best = n;
            best_tie = tie;
        } else {
            lo = k + 1;
        }
        k = probe > 0 ? (lo + hi) / 2 : n ? k - 1 : k + 1;
    }
    k = hi;
    if (k > 22 || best_tie || best > UINT64_MAX)
        return 0;
    n = best;
    digits = put_u64(num, (uint64_t)n);
    if (k == 0) {
        memcpy(out + len, num, (size_t)digits);
        len += digits;
        out[len++] = '.';
        out[len++] = '0';
    } else if (digits > k) {
        memcpy(out + len, num, (size_t)(digits - k));
        len += digits - k;
        out[len++] = '.';
        memcpy(out + len, num + digits - k, (size_t)k);
        len += k;
    } else {
        out[len++] = '0';
        out[len++] = '.';
        memset(out + len, '0', (size_t)(k - digits));
        len += k - digits;
        memcpy(out + len, num, (size_t)digits);
        len += digits;
    }
    return len;
#else
    (void)out;
    (void)x;
    return 0;
#endif
}

/* Write rows 0 .. rows - 1 of ncols columns to out: fields separated by
 * sep, each row ended by a newline.  Column j is the int64 array cols[j]
 * where kinds[j] is 'i', written as an integer, and the double array
 * cols[j] where kinds[j] is 'f', written as repr writes it.  out holds at
 * least 21 bytes per integer field and 32 per double field.  Returns the
 * bytes written, or -1 if the fast path declines a double (put_double).
 */
int64_t socm_write_rows(char *out, int64_t rows, int64_t ncols,
                        const void *const *cols, const char *kinds, int sep)
{
    char *at = out;
    int64_t i, j;

    for (i = 0; i < rows; i++) {
        for (j = 0; j < ncols; j++) {
            if (kinds[j] == 'i') {
                at += put_i64(at, ((const int64_t *)cols[j])[i]);
            } else {
                int len = put_double(at, ((const double *)cols[j])[i]);
                if (len == 0)
                    return -1;
                at += len;
            }
            *at++ = (char)(j + 1 < ncols ? sep : '\n');
        }
    }
    return at - out;
}

/* The double nearest n / 10^k, for n < 10^17 and k <= 22, into *value;
 * returns 0 where it cannot tell.  (double)n / 10^k lies within about an
 * ulp of n / 10^k, so the nearest double is that quotient or a neighbour,
 * and the one n / 10^k reads back as (reads_back) is it.  It declines
 * quotients outside [1e-4, 1e15), where 2^s would overflow the test.
 */
static int get_decimal(uint64_t n, int k, double *value)
{
#ifdef __SIZEOF_INT128__
    static const double pow10[23] = {
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
        1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
    double x = (double)n / pow10[k];
    uint64_t bits, m;
    int d, s;

    if (!(x >= 1e-4 && x < 1e15))
        return 0;
    memcpy(&bits, &x, sizeof bits);
    for (d = 0; d < 3; d++) {
        uint64_t b = d == 0 ? bits : d == 1 ? bits - 1 : bits + 1;
        m = (b & ((UINT64_C(1) << 52) - 1)) | (UINT64_C(1) << 52);
        s = 1075 - (int)((b >> 52) & 0x7ff);
        if (s >= 3 && s <= 67
            && reads_back(n, (u128)m * POW10[k], s, POW10[k], (m & 1) == 0,
                          m == UINT64_C(1) << 52)) {
            memcpy(value, &b, sizeof b);
            return 1;
        }
    }
#else
    (void)n;
    (void)k;
    (void)value;
#endif
    return 0;
}

/* Read one field of a body at `at` into *value, as np.loadtxt reads it, and
 * return the byte after it, or NULL if the field is not of the forms
 * written by socm_write_rows or repr: an optional '-', then digits with an
 * optional fraction of digits and an optional exponent, or 'nan', 'inf'
 * or '-inf'.  Integers of up to 15 digits (below 2^53) are converted
 * exactly, decimals of up to 17 digits without an exponent by
 * get_decimal where it can, and everything else by strtod, whose rounding
 * is correct as np.loadtxt's is.
 */
static const char *get_field(const char *at, const char *end, double *value)
{
    const char *p = at, *digits;
    uint64_t v = 0;
    int negative = *p == '-', count, k = 0;
    char *stop;

    p += negative;
    if (end - p >= 3 && (memcmp(p, "inf", 3) == 0 || (!negative && memcmp(p, "nan", 3) == 0))) {
        p += 3;
    } else {
        for (digits = p; p < end && *p >= '0' && *p <= '9'; p++)
            v = v * 10 + (uint64_t)(*p - '0');
        if (p == digits)
            return NULL;
        count = (int)(p - digits);
        if (count <= 15 && (p == end || *p == ' ' || *p == '\n')) {
            *value = negative ? -(double)v : (double)v;
            return p;
        }
        if (p < end && *p == '.') {
            for (digits = ++p; p < end && *p >= '0' && *p <= '9'; p++)
                v = v * 10 + (uint64_t)(*p - '0');
            if (p == digits)
                return NULL;
            k = (int)(p - digits);
            count += k;
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            p += p + 1 < end && (p[1] == '-' || p[1] == '+');
            for (digits = ++p; p < end && *p >= '0' && *p <= '9'; p++)
                ;
            if (p == digits)
                return NULL;
        } else if (count <= 17 && k <= 22 && get_decimal(v, k, value)) {
            if (negative)
                *value = -*value;
            return p;
        }
    }
    *value = strtod(at, &stop);
    return stop == p ? p : NULL;
}

/* Read a body of `rows` lines of ncols fields, each line ended by a
 * newline and its fields separated by single spaces, into the row-major
 * rows x ncols matrix out.  Returns 0, or -1 if the body is not of that
 * form or holds a field get_field refuses.
 */
int socm_read_rows(const char *body, int64_t len, int64_t rows, int64_t ncols, double *out)
{
    const char *at = body, *end = body + len;
    int64_t i, j;

    for (i = 0; i < rows; i++) {
        for (j = 0; j < ncols; j++) {
            at = get_field(at, end, out++);
            if (at == NULL || at == end || *at != (j + 1 < ncols ? ' ' : '\n'))
                return -1;
            at++;
        }
    }
    return at == end ? 0 : -1;
}
