/* The two-trader crash loop of valtrack.engine.crash_step.

   crash_step(p, m, cv, av, cm, am, u, kv_buy, kv_sell, km_buy, km_sell,
              eta, lam, mu, zeta, liquidity, ratio, updated, horizon,
              ceiling, stop) -> (code, steps, price)

   steps a checked market of one Val trader (cash cv, asset av, valuation
   u) and at most one Mo trader (cm, am; 0.0 when absent) from price p and
   momentum m, and stops at the first price at or below stop. It is the
   scalar step of engine._stepper with the Val and Mo order rules of
   traders.population_orders inlined: the same float operations in the
   same order, so with the libm exp, log and pow that Python's math module
   and float ** call, and built with -ffp-contract=off so that no a * b + c
   is fused into one rounding, every price is the scalar engine's bit for
   bit. A sum of two orders is their fsum but for the sign of a zero sum,
   which no later value reads.

   code is CRASH when the price reached stop at step `steps`, NO_CRASH at
   the horizon or at the first step whose four orders are all zero, after
   `steps` steps, and CEILING or DEMAND when step `steps` moved the price
   to `price` above the ceiling or made an infinite demand at it; engine
   raises the InvalidInputError of the scalar step for those.

   From a step whose four orders are all zero nothing changes that an
   order reads, so no order is placed again and the run never crashes:
   - no flow moves the price by exp(0.0) == 1.0, so p stays above stop;
   - no order settles, so no holding moves;
   - m becomes mu * log(1.0) + (1 - mu) * m, of m's sign or 0: the Mo
     trader, silent at m with its holdings, stays silent, and so does the
     Val trader, which reads only the unchanged p and holdings;
   - the price stays at or below the ceiling, and a zero bid makes a zero
     demand, so no step raises either. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <errno.h>
#include <math.h>

enum { NO_CRASH, CRASH, CEILING, DEMAND };

/* engine._powerlaw_move: math.copysign(abs(imbalance / liquidity) ** zeta,
   imbalance), infinite where the power raises OverflowError. Python's
   float ** raises where libm returns inf or sets errno, an underflow to
   zero aside. */
static double
powerlaw_move(double imbalance, double liquidity, double zeta)
{
    double r;
    errno = 0;
    r = pow(fabs(imbalance / liquidity), zeta);
    if (errno == 0 ? isinf(r) : !(errno == ERANGE && r == 0.0))
        r = INFINITY;
    return copysign(r, imbalance);
}

static PyObject *
crash_step(PyObject *self, PyObject *args)
{
    double p, m, cv, av, cm, am, u, kv_buy, kv_sell, km_buy, km_sell;
    double eta, lam, mu, zeta, liquidity, ceiling, stop, one_minus_mu;
    int ratio, updated, code = NO_CRASH;
    long long horizon, t = 0;

    if (!PyArg_ParseTuple(args, "ddddddddddddddddppLdd", &p, &m, &cv, &av, &cm, &am, &u,
                          &kv_buy, &kv_sell, &km_buy, &km_sell, &eta, &lam, &mu, &zeta,
                          &liquidity, &ratio, &updated, &horizon, &ceiling, &stop))
        return NULL;
    one_minus_mu = 1.0 - mu;
    while (t < horizon) {
        double bv = p < u ? kv_buy * cv : 0.0;
        double ov = p > u ? kv_sell * av : 0.0;
        double bm = m > 0.0 ? km_buy * cm : 0.0;
        double om = m < 0.0 ? km_sell * am : 0.0;
        double total_bid = bv + bm, q_s = ov + om;
        double q_p, dlog, move, p_new, p_settle, demand;

        /* tested on total_bid: q_p can underflow to 0 for a positive bid */
        if (total_bid == 0.0 && q_s == 0.0)
            break;
        t++;
        if ((t & 0xfffff) == 0 && PyErr_CheckSignals() < 0)
            return NULL;
        q_p = total_bid / p;
        if (!ratio)
            dlog = powerlaw_move(q_p - q_s, liquidity, zeta);
        else if (q_p > 0.0 && q_s > 0.0) {
            double r = q_p / q_s;
            /* math.log raises on a ratio that underflows to 0 */
            dlog = r > 0.0 ? lam * log(r) : lam * (log(q_p) - log(q_s));
        }
        else  /* one-sided flow moves at the cap, no flow not at all */
            dlog = q_p > q_s ? INFINITY : q_p < q_s ? -INFINITY : 0.0;
        move = dlog < eta ? dlog : eta;
        p_new = p * exp(move > -eta ? move : -eta);
        if (!(p_new <= ceiling)) {
            code = CEILING;
            p = p_new;
            break;
        }
        p_settle = updated ? p_new : p;
        demand = total_bid / p_settle;
        if (demand == INFINITY) {  /* only a settlement price below the floor */
            code = DEMAND;
            p = p_new;
            break;
        }
        if (demand > 0.0 && q_s > 0.0) {
            double f_buy = q_s / demand, f_sell = demand / q_s;
            f_buy = f_buy < 1.0 ? f_buy : 1.0;
            f_sell = f_sell < 1.0 ? f_sell : 1.0;
            if (bv > 0.0) {
                double paid = bv * f_buy;
                cv -= paid;
                av += paid / p_settle;
            }
            if (ov > 0.0) {
                double sold = ov * f_sell;
                av -= sold;
                cv += sold * p_settle;
            }
            if (bm > 0.0) {
                double paid = bm * f_buy;
                cm -= paid;
                am += paid / p_settle;
            }
            if (om > 0.0) {
                double sold = om * f_sell;
                am -= sold;
                cm += sold * p_settle;
            }
        }
        m = mu * log(p_new / p) + one_minus_mu * m;
        p = p_new;
        if (p <= stop) {
            code = CRASH;
            break;
        }
    }
    return Py_BuildValue("iLd", code, t, p);
}

static PyMethodDef methods[] = {
    {"crash_step", crash_step, METH_VARARGS, "The two-trader crash loop."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_crashloop", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit__crashloop(void)
{
    return PyModule_Create(&module);
}
