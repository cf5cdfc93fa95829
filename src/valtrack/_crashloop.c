/* The compiled step loops of valtrack: crash_step, the two-trader crash
   loop of engine.crash_step, and run_summaries, the summary loop of
   summaries.run_summaries and of engine.run, which it steps as a one-run
   batch that writes each step's row (price, momentum, flow, executed
   volume, cap_hit and each trader's wealth) into a series buffer.

   Both are the scalar step of engine._stepper with the order rules of
   traders.population_orders inlined: the same float operations in the
   same order, so with the libm exp, log and pow that Python's math module
   and float ** call, math.fsum's algorithm for the order totals (fsum),
   numpy's PCG64 stream for the random traders' draws (uniform), and built
   with -ffp-contract=off so that no a * b + c is fused into one rounding,
   every price and every recorded value is the scalar engine's bit for
   bit. The ceiling and demand failures come back as codes, CEILING or
   DEMAND with the offending price; Python raises the InvalidInputError of
   the scalar step for those.

   crash_step(p, m, cv, av, cm, am, u, kv_buy, kv_sell, km_buy, km_sell,
              eta, lam, mu, zeta, liquidity, ratio, updated, horizon,
              ceiling, stop) -> (code, steps, price)

   steps a checked market of one Val trader (cash cv, asset av, valuation
   u) and at most one Mo trader (cm, am; 0.0 when absent) from price p and
   momentum m, and stops at the first price at or below stop. A sum of two
   orders is their fsum but for the sign of a zero sum, which no later
   value reads.

   code is CRASH when the price reached stop at step `steps`, NO_CRASH at
   the horizon or at the first step whose four orders are all zero, after
   `steps` steps, and CEILING or DEMAND when step `steps` moved the price
   to `price` above the ceiling or made an infinite demand at it.

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
#include <stdint.h>

enum { NO_CRASH, CRASH, CEILING, DEMAND };

/* The trader codes of run_summaries: summaries._LOOP_KINDS. */
enum { VAL, MO, RAND_BASIC, RAND_REFINED };

typedef struct {
    double eta, lam, mu, one_minus_mu, zeta, liquidity;
    int ratio, updated;
} Market;

/* The power-law move of engine._stepper: math.copysign(abs(imbalance /
   liquidity) ** zeta, imbalance), infinite where the power raises
   OverflowError. Python's float ** raises where libm returns inf or sets
   errno, an underflow to zero aside. Inlined, as moved_price is, so that
   each loop keeps its state in registers. */
static inline double
powerlaw_move(double imbalance, double liquidity, double zeta)
{
    double r;
    errno = 0;
    r = pow(fabs(imbalance / liquidity), zeta);
    if (errno == 0 ? isinf(r) : !(errno == ERANGE && r == 0.0))
        r = INFINITY;
    return copysign(r, imbalance);
}

/* The price that the flow q_p, q_s moves p to: the uncapped log move,
   which goes to *uncapped, capped at eta and then at -eta. */
static inline double
moved_price(const Market *mk, double p, double q_p, double q_s, double *uncapped)
{
    double dlog, move;

    if (!mk->ratio)
        dlog = powerlaw_move(q_p - q_s, mk->liquidity, mk->zeta);
    else if (q_p > 0.0 && q_s > 0.0) {
        double r = q_p / q_s;
        /* math.log raises on a ratio that underflows to 0 */
        dlog = r > 0.0 ? mk->lam * log(r) : mk->lam * (log(q_p) - log(q_s));
    }
    else  /* one-sided flow moves at the cap, no flow not at all */
        dlog = q_p > q_s ? INFINITY : q_p < q_s ? -INFINITY : 0.0;
    *uncapped = dlog;
    move = dlog < mk->eta ? dlog : mk->eta;
    return p * exp(move > -mk->eta ? move : -mk->eta);
}

/* A trader's holdings and strategy fields, as run_summaries' holdings
   lay them out. */
typedef struct {
    double cash, asset, u, critical_cash, critical_asset;
} Trader;

/* Settle a trader's bid (cash) and offer (asset) at p_settle, filled at
   f_buy and f_sell. */
static inline void
settle(Trader *x, double bid, double offer, double f_buy, double f_sell, double p_settle)
{
    if (bid > 0.0) {
        double paid = bid * f_buy;
        x->cash -= paid;
        x->asset += paid / p_settle;
    }
    if (offer > 0.0) {
        double sold = offer * f_sell;
        x->asset -= sold;
        x->cash += sold * p_settle;
    }
}

static PyObject *
crash_step(PyObject *Py_UNUSED(self), PyObject *args)
{
    double p, m, cv, av, cm, am, u, kv_buy, kv_sell, km_buy, km_sell;
    double eta, lam, mu, zeta, liquidity, ceiling, stop;
    int ratio, updated, code = NO_CRASH;
    long long horizon, t = 0;

    if (!PyArg_ParseTuple(args, "ddddddddddddddddppLdd", &p, &m, &cv, &av, &cm, &am, &u,
                          &kv_buy, &kv_sell, &km_buy, &km_sell, &eta, &lam, &mu, &zeta,
                          &liquidity, &ratio, &updated, &horizon, &ceiling, &stop))
        return NULL;
    /* copies whose addresses no call outside this file sees, so that they
       can stay in registers across the libm calls */
    Market mk = {eta, lam, mu, 1.0 - mu, zeta, liquidity, ratio, updated};
    Trader val = {cv, av, u, 0.0, 0.0}, mo = {cm, am, 0.0, 0.0, 0.0};

    while (t < horizon) {
        double bv = p < val.u ? kv_buy * val.cash : 0.0;
        double ov = p > val.u ? kv_sell * val.asset : 0.0;
        double bm = m > 0.0 ? km_buy * mo.cash : 0.0;
        double om = m < 0.0 ? km_sell * mo.asset : 0.0;
        double total_bid = bv + bm, q_s = ov + om;
        double dlog, p_new, p_settle, demand;

        /* tested on total_bid: q_p can underflow to 0 for a positive bid */
        if (total_bid == 0.0 && q_s == 0.0)
            break;
        t++;
        if ((t & 0xfffff) == 0 && PyErr_CheckSignals() < 0)
            return NULL;
        p_new = moved_price(&mk, p, total_bid / p, q_s, &dlog);
        if (!(p_new <= ceiling)) {
            code = CEILING;
            p = p_new;
            break;
        }
        p_settle = mk.updated ? p_new : p;
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
            settle(&val, bv, ov, f_buy, f_sell, p_settle);
            settle(&mo, bm, om, f_buy, f_sell, p_settle);
        }
        m = mk.mu * log(p_new / p) + mk.one_minus_mu * m;
        p = p_new;
        if (p <= stop) {
            code = CRASH;
            break;
        }
    }
    return Py_BuildValue("iLd", code, t, p);
}

/* math.fsum of x[0..n-1] as CPython 3.11 computes it: Shewchuk's exact
   partials, then their sum from the top down to its first inexact step,
   with the correction that rounds half-even across partials. partials
   holds n doubles, the most a sum of n terms keeps. check_state's bounds
   keep every order, and so every partial, finite, so fsum's branches for
   inf, NaN and intermediate overflow are never taken and are left out. */
static double
fsum(const double *x, Py_ssize_t n, double *partials)
{
    Py_ssize_t i, j, k, kept = 0;
    double hi, lo = 0.0, y, yr;

    for (k = 0; k < n; k++) {
        double v = x[k];
        for (i = j = 0; j < kept; j++) {
            y = partials[j];
            if (fabs(v) < fabs(y)) {
                double t = v;
                v = y;
                y = t;
            }
            hi = v + y;
            yr = hi - v;
            lo = y - yr;
            if (lo != 0.0)
                partials[i++] = lo;
            v = hi;
        }
        kept = i;
        if (v != 0.0)
            partials[kept++] = v;
    }
    hi = 0.0;
    if (kept > 0) {
        hi = partials[--kept];
        while (kept > 0) {
            double v = hi;
            y = partials[--kept];
            hi = v + y;
            yr = hi - v;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        if (kept > 0 && ((lo < 0.0 && partials[kept - 1] < 0.0) ||
                         (lo > 0.0 && partials[kept - 1] > 0.0))) {
            double v;
            y = lo * 2.0;
            v = hi + y;
            yr = v - hi;
            if (y == yr)
                hi = v;
        }
    }
    return hi;
}

/* numpy's PCG64 stream: a 128-bit LCG whose state the XSL-RR output
   function reads after each step, and Generator.random()'s double, the
   top 53 bits of an output over 2**53. */
typedef unsigned __int128 u128;

typedef struct {
    u128 state, inc;
} Stream;

static double
uniform(Stream *s)
{
    static const u128 multiplier =
        ((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL;
    uint64_t x;
    unsigned rot;

    s->state = s->state * multiplier + s->inc;
    x = (uint64_t)(s->state >> 64) ^ (uint64_t)s->state;
    rot = (unsigned)(s->state >> 122);
    x = (x >> rot) | (x << ((-rot) & 63));
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* Write a row of run_summaries' series and return the next: the price p,
   the momentum m, the flow q_p and q_s, the executed volume, cap_hit (1.0
   or 0.0) and each of the nt traders' wealth, cash + asset * p. */
static inline double *
record(double *row, double p, double m, double q_p, double q_s, double executed,
       double cap_hit, const Trader *tr, Py_ssize_t nt)
{
    Py_ssize_t j;

    row[0] = p;
    row[1] = m;
    row[2] = q_p;
    row[3] = q_s;
    row[4] = executed;
    row[5] = cap_hit;
    for (j = 0; j < nt; j++)
        row[6 + j] = tr[j].cash + tr[j].asset * p;
    return row + 6 + nt;
}

/* One run of run_summaries from start, its price, momentum, ceiling and
   stop price, to its abort, a price below floor_price, its first price at
   or below the stop price, or its horizon, as engine.run steps it: its nt
   traders, of codes kind, are stepped in place, and scratch holds 3 * nt
   doubles. Where series is not NULL it gets the start's row, with a zero
   flow, and then each step's (see record). The last price and momentum
   go back to start, so that another call goes on from there. Returns the
   tuple (lowest price, highest price, aborted, steps), the start's price
   among them; or Py_None, a borrowed reference, with *code CEILING or
   DEMAND and the price in *failed; or NULL with an exception set.
   Inlined at two call sites, so that the loop of a call without a series
   carries none of its code. */
static inline __attribute__((always_inline)) PyObject *
summarise(const Market *mk, const double *k, double *start, double floor_price,
          long long horizon, const unsigned char *kind, Trader *tr, Py_ssize_t nt,
          Stream *stream, double *scratch, double *series, int *code, double *failed)
{
    double *bids = scratch, *offers = scratch + nt, *partials = scratch + 2 * nt;
    double p = start[0], m = start[1], ceiling = start[2], stop = start[3];
    double low = p, high = p;
    long long t = 0;
    Py_ssize_t j;

    if (series)
        series = record(series, p, m, 0.0, 0.0, 0.0, 0.0, tr, nt);
    while (t < horizon && !(p < floor_price) && !(p <= stop)) {
        double total_bid, q_p, q_s, dlog, p_new, p_settle, demand;

        t++;
        if ((t & 0xfffff) == 0 && PyErr_CheckSignals() < 0)
            return NULL;
        for (j = 0; j < nt; j++) {
            const Trader *x = &tr[j];
            double bid, offer;
            switch (kind[j]) {
            case VAL:
                bid = p < x->u ? k[0] * x->cash : 0.0;
                offer = p > x->u ? k[1] * x->asset : 0.0;
                break;
            case MO:
                bid = m > 0.0 ? k[2] * x->cash : 0.0;
                offer = m < 0.0 ? k[3] * x->asset : 0.0;
                break;
            case RAND_REFINED: {
                double asset_value = x->asset * p, reference = x->cash + asset_value;
                if (x->cash < x->critical_cash || asset_value < x->critical_asset)
                    reference = asset_value < x->cash ? asset_value : x->cash;
                /* Python's min(x, y) returns x unless y < x */
                bid = k[4] * uniform(stream) * reference;
                bid = x->cash < bid ? x->cash : bid;
                offer = k[5] * uniform(stream) * reference / p;
                offer = x->asset < offer ? x->asset : offer;
                break;
            }
            default:  /* RAND_BASIC */
                bid = k[4] * uniform(stream) * x->cash;
                offer = k[5] * uniform(stream) * x->asset;
            }
            bids[j] = bid;
            offers[j] = offer;
        }
        total_bid = fsum(bids, nt, partials);
        q_s = fsum(offers, nt, partials);
        q_p = total_bid / p;
        p_new = moved_price(mk, p, q_p, q_s, &dlog);
        if (!(p_new <= ceiling)) {
            *code = CEILING;
            *failed = p_new;
            return Py_None;
        }
        p_settle = mk->updated ? p_new : p;
        demand = total_bid / p_settle;
        if (demand == INFINITY) {  /* only a settlement price below the floor */
            *code = DEMAND;
            *failed = p_new;
            return Py_None;
        }
        if (demand > 0.0 && q_s > 0.0) {
            double f_buy = q_s / demand, f_sell = demand / q_s;
            f_buy = f_buy < 1.0 ? f_buy : 1.0;
            f_sell = f_sell < 1.0 ? f_sell : 1.0;
            for (j = 0; j < nt; j++)
                settle(&tr[j], bids[j], offers[j], f_buy, f_sell, p_settle);
        }
        m = mk->mu * log(p_new / p) + mk->one_minus_mu * m;
        p = p_new;
        low = p < low ? p : low;
        high = p > high ? p : high;
        if (series)
            series = record(series, p, m, q_p, q_s, q_s < demand ? q_s : demand,
                            fabs(dlog) > mk->eta, tr, nt);
    }
    start[0] = p;
    start[1] = m;
    return Py_BuildValue("(ddNL)", low, high, PyBool_FromLong(p < floor_price), t);
}

/* run_summaries(starts, first, kinds, holdings, streams, commitments,
                 eta, lam, mu, zeta, liquidity, ratio, updated, horizon,
                 floor_price[, series]) -> (code, row, price, rows)

   steps each of n checked runs to its abort, a price below floor_price,
   its first price at or below its stop price, or its horizon, as
   engine.run does, run by run in row order. Run i starts from price,
   momentum, ceiling and stop price starts[4i:4i+4] (doubles; a stop price
   of -inf never stops a run) with traders first[i] to first[i+1] - 1
   (first holds n + 1 int64). Trader j has the code kinds[j] (bytes) and
   the cash, asset, valuation, critical cash and critical asset
   holdings[5j:5j+5] (doubles). streams[4i:4i+4] (uint64) are the high and
   low halves of the PCG64 state and increment of run i's random traders,
   if it has any. A run leaves its last price and momentum in starts, and
   its holdings and its stream's state in holdings and streams, so that a
   second call goes on from where it stopped. commitments holds kv_buy,
   kv_sell, km_buy, km_sell, kr_buy and kr_sell. series, given for a call
   of one run of nt traders, is a writable buffer of at least (horizon +
   1) * (6 + nt) doubles, which gets the run's rows (summarise). rows
   holds summarise's tuple of each run that ended. code is NO_CRASH when
   every run ended, else CEILING or DEMAND of run `row` at `price`, which
   ends the call. */
static PyObject *
run_summaries(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer starts, first, kinds, holdings, streams, commitments, series = {0};
    long long horizon;
    double eta, lam, mu, zeta, liquidity, floor_price, failed = 0.0, *scratch = NULL;
    PyObject *result = NULL, *rows = NULL;
    Py_ssize_t n, i, j, most = 1;
    int ratio, updated, code = NO_CRASH;

    if (!PyArg_ParseTuple(args, "w*y*y*w*w*y*dddddppLd|w*", &starts, &first, &kinds,
                          &holdings, &streams, &commitments, &eta, &lam, &mu, &zeta,
                          &liquidity, &ratio, &updated, &horizon, &floor_price, &series))
        return NULL;
    Market mk = {eta, lam, mu, 1.0 - mu, zeta, liquidity, ratio, updated};
    double *start = starts.buf;
    const double *k = commitments.buf;
    const int64_t *firsts = first.buf;
    const unsigned char *kind = kinds.buf;
    uint64_t *words = streams.buf;
    n = starts.len / (4 * (Py_ssize_t)sizeof(double));
    int valid = first.len == (n + 1) * (Py_ssize_t)sizeof(int64_t) && firsts[0] == 0 &&
        firsts[n] == kinds.len && holdings.len == kinds.len * (Py_ssize_t)sizeof(Trader) &&
        streams.len == 4 * n * (Py_ssize_t)sizeof(uint64_t) &&
        commitments.len == 6 * (Py_ssize_t)sizeof(double);
    for (i = 0; valid && i < n; i++) {
        valid = firsts[i + 1] >= firsts[i];
        most = firsts[i + 1] - firsts[i] > most ? firsts[i + 1] - firsts[i] : most;
    }
    for (j = 0; valid && j < kinds.len; j++)
        valid = kind[j] <= RAND_REFINED;
    if (valid && series.buf)  /* rows of 6 + nt doubles, one more than the horizon */
        valid = n == 1 && series.len / (Py_ssize_t)sizeof(double) / (6 + kinds.len) > horizon;
    if (!valid) {
        PyErr_SetString(PyExc_ValueError, "run_summaries: inconsistent buffers");
        goto done;
    }
    scratch = PyMem_New(double, 3 * most);
    rows = PyList_New(0);
    if (scratch == NULL || rows == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < n; i++) {
        Py_ssize_t at = firsts[i], nt = firsts[i + 1] - at;
        uint64_t *w = words + 4 * i;
        Stream stream = {(u128)w[0] << 64 | w[1], (u128)w[2] << 64 | w[3]};
        PyObject *row = series.buf ?
            summarise(&mk, k, start + 4 * i, floor_price, horizon, kind + at,
                      (Trader *)holdings.buf + at, nt, &stream, scratch, series.buf, &code,
                      &failed) :
            summarise(&mk, k, start + 4 * i, floor_price, horizon, kind + at,
                      (Trader *)holdings.buf + at, nt, &stream, scratch, NULL, &code, &failed);
        if (row == NULL)
            goto done;
        if (row == Py_None)
            break;
        w[0] = (uint64_t)(stream.state >> 64);
        w[1] = (uint64_t)stream.state;
        j = PyList_Append(rows, row);
        Py_DECREF(row);
        if (j < 0)
            goto done;
    }
    result = Py_BuildValue("indO", code, i, failed, rows);
done:
    Py_XDECREF(rows);
    PyMem_Free(scratch);
    PyBuffer_Release(&starts);
    PyBuffer_Release(&first);
    PyBuffer_Release(&kinds);
    PyBuffer_Release(&holdings);
    PyBuffer_Release(&streams);
    PyBuffer_Release(&commitments);
    if (series.obj)
        PyBuffer_Release(&series);
    return result;
}

static PyMethodDef methods[] = {
    {"crash_step", crash_step, METH_VARARGS, "The two-trader crash loop."},
    {"run_summaries", run_summaries, METH_VARARGS, "The summary loop of a batch of runs."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_crashloop", NULL, -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__crashloop(void)
{
    return PyModule_Create(&module);
}
