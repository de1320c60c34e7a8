/* The incremental engine's update kernel.
 *
 * After one price change it recomputes, phase by phase, production and
 * wants, demand, traded and profit over the changed agent's affected sets,
 * with market.evaluate_market's arithmetic in its order, so the two give
 * the same bits.  Build it without contraction or reassociation of
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
} market;

/* Recompute production and wants over agents[b[0] .. b[1] - 1], demand over
   agents[b[1] .. b[2] - 1], traded over agents[b[2] .. b[3] - 1] and profit
   over agents[b[3] .. b[4] - 1], in that order; returns the profit count. */
int socm_update(const market *m, const int64_t *b, const int32_t *agents)
{
    const double *p = m->p, *w = m->w;
    double *wants = m->wants, *qp = m->qp, *qW = m->qW, *qt = m->qt;
    const int64_t *sup_ptr = m->sup_ptr, *sup_idx = m->sup_idx;
    int64_t k, e;

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
    return (int)(b[4] - b[3]);
}

/* socm_update over the plan of agent c */
int socm_update_agent(const market *m, int c)
{
    return socm_update(m, m->plan_ptr + 4 * (int64_t)c, m->plan);
}
