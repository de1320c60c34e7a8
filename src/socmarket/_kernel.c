/* The incremental engine's kernel: the update after one price change, the
 * loser tree, and the step loop over a block of price cuts.
 *
 * After one price change socm_update recomputes, phase by phase, production
 * and wants, demand, traded and profit over the changed agent's affected
 * sets, with market.evaluate_market's arithmetic in its order, so the two
 * give the same bits.  Build it without contraction or reassociation of
 * floating-point operations (-ffp-contract=off, never -ffast-math): a fused
 * multiply-add would change the bits.
 */

#include <math.h>
#include <stdint.h>

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
    double two_thirds;
    /* loser tree over the n profits: node v (1 <= v < size) holds the
       winner of nodes 2v and 2v + 1, leaf size + i holds agent i, and the
       leaves past n hold -1; size is the least power of two >= n */
    int32_t *tree;
    int64_t n, size;
    /* sum of the prices, kept by the cuts */
    double psum;
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

/* Replay the matches from agent i's leaf to the root after its profit changed. */
void socm_tree_fix(const market *m, int64_t i)
{
    int32_t *tree = m->tree;
    int64_t v;

    for (v = (m->size + i) >> 1; v >= 1; v >>= 1)
        tree[v] = winner(m->profit, tree[2 * v], tree[2 * v + 1]);
}

/* Recompute production and wants over agents[b[0] .. b[1] - 1], demand over
   agents[b[1] .. b[2] - 1], traded over agents[b[2] .. b[3] - 1] and profit
   over agents[b[3] .. b[4] - 1], in that order, and repair the loser tree
   over the profits: leaf by leaf, or all at once where the leaf-to-root
   paths hold more matches than the tree (dense plans, such as ER100's,
   where a cut recomputes most profits); returns the profit count. */
int socm_update(const market *m, const int64_t *b, const int32_t *agents)
{
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
        q = pow(tot, m->two_thirds);
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
        for (k = b[3]; k < b[4]; k++)
            socm_tree_fix(m, agents[k]);
    return (int)(b[4] - b[3]);
}

/* socm_update over the plan of agent c */
int socm_update_agent(const market *m, int c)
{
    return socm_update(m, m->plan_ptr + 4 * (int64_t)c, m->plan);
}

/* What socm_advance reads and writes for one block of steps. */
typedef struct {
    /* step j cuts the loser's price by the factor 1 - eta_max * u[j] */
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
} steps;

/* Count step j's row of activity: the profits below each threshold
   f0[k] * mp.  One pass compares a profit with the thresholds only when it
   lies below the highest of them, and none is made when the least profit,
   profit[c], does not (a NaN there may hide numbers, so it does not skip). */
static void count_activity(const market *m, const steps *s, int j, int32_t c, double mp)
{
    const double *profit = m->profit, *f0 = s->f0;
    int32_t *row = s->activity + (int64_t)j * s->nf0;
    double top = -INFINITY;
    int64_t i, k, nf0 = s->nf0;

    for (k = 0; k < nf0; k++) {
        row[k] = 0;
        if (f0[k] * mp > top)
            top = f0[k] * mp;
    }
    if (profit[c] >= top)
        return;
    for (i = 0; i < m->n; i++)
        if (profit[i] < top)
            for (k = 0; k < nf0; k++)
                row[k] += profit[i] < f0[k] * mp;
}

/* Run steps from .. count - 1 of a block.
 *
 * Step j first stops the loop if the mean price psum / n is below the
 * level (except at step `from` when `renormed` is set: the caller has just
 * renormalised), then writes the loser, its profit and the mean price to
 * loser[j], min_profit[j] and mean_price[j], counts the activity if
 * `activity` is set, and cuts the price.  Returns the step it stopped
 * before, or -1 - j if step j's new price is not positive (nothing of step
 * j is done).
 */
int socm_advance(market *m, const steps *s, int from, int count, int renormed)
{
    double *p = m->p, *profit = m->profit;
    int j;

    for (j = from; j < count; j++) {
        double mp = m->psum / (double)m->n, old, cut;
        int32_t c = m->tree[1];

        if (mp < s->level && !(renormed && j == from))
            return j;
        old = p[c];
        cut = old * (1.0 - s->eta_max * s->u[j]);
        if (!(cut > 0.0))
            return -1 - j;
        s->loser[j] = c;
        s->min_profit[j] = profit[c];
        s->mean_price[j] = mp;
        if (s->activity)
            count_activity(m, s, j, c, mp);
        m->psum += cut - old;
        p[c] = cut;
        socm_update_agent(m, c);
    }
    return count;
}
