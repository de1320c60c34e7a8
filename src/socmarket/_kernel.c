/* The incremental engine's kernel over one struct, `market`, which the
 * engine binds once: the update after one price change, the loser tree, and
 * the step loop over a block of price cuts with its activity count.
 *
 * After one price change socm_update recomputes, phase by phase, production
 * and wants, demand, traded and profit over the changed agent's plan row,
 * with market.evaluate_market's arithmetic in its order, so the two give
 * the same bits.  Build it without contraction or reassociation of
 * floating-point operations (-ffp-contract=off, never -ffast-math): a fused
 * multiply-add would change the bits.
 */

#include <math.h>
#include <stdint.h>

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
    /* one block of steps: step j cuts the loser's price by the factor
       1 - eta_max * u[j] and writes loser[j], min_profit[j] and
       mean_price[j] */
    const double *u;
    int32_t *loser;
    double *min_profit, *mean_price;
    double eta_max;
    /* the mean price below which the prices are renormalised */
    double level;
    /* activity[j * nf0 + k] counts the profits below f0[k] * mean price */
    int64_t nf0;
    const double *f0;
    int32_t *activity;
    /* the activity's candidates: below[0 .. nbelow - 1] lists the agents
       whose profit is not >= bound, and slot[i] is agent i's place there
       or -1; bound is at least every threshold while the mean price is at
       least mp_low */
    int32_t *below, *slot;
    int64_t nbelow;
    double bound, mp_low;
} market;

/* The winner of a and b, where a's leaves lie left of b's: b wins only with
   a smaller profit, or a NaN against a number, so the root is np.argmin's
   answer (the lowest index among equal minima, the first NaN if any). */
static int32_t winner(const double *profit, int32_t a, int32_t b)
{
    double x, y;
    if (b < 0)
        return a;
    x = profit[a];
    y = profit[b];
    return (y < x || (y != y && x == x)) ? b : a;
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

/* Add agent i to the candidates or remove it, after its profit changed; a
   removal moves the last candidate into its place (the counts are integer
   sums, so the order is free). */
static void place(market *m, int32_t i)
{
    int32_t at = m->slot[i], last;
    int listed = !(m->profit[i] >= m->bound);

    if (listed && at < 0) {
        m->slot[i] = (int32_t)m->nbelow;
        m->below[m->nbelow++] = i;
    } else if (!listed && at >= 0) {
        last = m->below[--m->nbelow];
        m->below[at] = last;
        m->slot[last] = at;
        m->slot[i] = -1;
    }
}

/* List the candidates at mean price mp.  The cuts only lower the mean price,
   and a threshold f0[k] * mp' at any mp' in [mp_low, mp] lies between
   f0[k] * mp and f0[k] * mp_low, so it is at most bound until the mean
   price falls 0.1 % below mp. */
static void list_below(market *m, double mp)
{
    int64_t i, k;

    m->mp_low = mp * (1.0 - 1e-3);
    m->bound = -INFINITY;
    for (k = 0; k < m->nf0; k++)
        m->bound = fmax(m->bound, fmax(m->f0[k] * mp, m->f0[k] * m->mp_low));
    m->nbelow = 0;
    for (i = 0; i < m->n; i++) {
        m->slot[i] = -1;
        place(m, (int32_t)i);
    }
}

/* Count step j's row of activity: the candidates below each threshold
   f0[k] * mp. */
static void count_activity(const market *m, int j, double mp)
{
    int32_t *row = m->activity + (int64_t)j * m->nf0;
    int64_t i, k;

    for (k = 0; k < m->nf0; k++) {
        double top = m->f0[k] * mp;
        int32_t count = 0;
        for (i = 0; i < m->nbelow; i++)
            count += m->profit[m->below[i]] < top;
        row[k] = count;
    }
}

/* Run steps from .. count - 1 of a block.
 *
 * Step j first stops the loop if the mean price psum / n is below the
 * level (except at step `from` when `renormed` is set: the caller has just
 * renormalised), then writes the loser, its profit and the mean price to
 * loser[j], min_profit[j] and mean_price[j], counts the activity if
 * `activity` is set, and cuts the price.  The activity's candidates are
 * listed on entry (the caller may have changed any profit) and whenever the
 * mean price falls below mp_low, and each update places the agents of its
 * profit phase.  Returns the step it stopped before, or -1 - j if step j's
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
                list_below(m, mp);
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
