/* The compiled step loop of valtrack, summarise: the scalar step of
   engine._stepper with the order rules of traders.population_orders
   inlined. It is force-inlined at three call sites, so that gcc
   specialises its one body to each: crash_step, the crash loop of
   engine.crash_step for a market of one Val trader and at most one Mo
   trader (engine.crash_loop_for); run_summaries without a series, the
   summary loop of a sweep's batch; and run_summaries with a series,
   engine.run as a one-run batch that appends each step's row to a
   bytearray that it grows.

   It does the same float operations in the same order as the scalar
   step, so with the libm exp, log and pow that Python's math module and
   float ** call, math.fsum's algorithm for the order totals (fsum),
   numpy's PCG64 stream for the random traders' draws (uniform), and built
   with -ffp-contract=off so that no a * b + c is fused into one rounding,
   every price and every recorded value is the scalar engine's bit for
   bit. The ceiling and demand failures come back as codes, CEILING or
   DEMAND with the offending price; Python raises the scalar step's
   InvalidInputError for those.

   A run without a random trader that records no series stops at its
   first step that places no order, and reports its horizon as its steps:
   from there nothing changes that an order reads, so every later step
   repeats that one:
   - no flow moves the price by exp(0.0) == 1.0, so p, and with it the
     lowest and highest price, stays where it was, above the stop price
     and the floor;
   - no order settles, so no holding moves;
   - m becomes mu * log(1.0) + (1 - mu) * m, of m's sign or 0 as mu lies
     in (0, 1): a silent Mo trader stays silent, and so does a Val trader,
     which reads only the unchanged p and holdings;
   - the price stays at or below the ceiling, and a zero bid makes a zero
     demand, so no step raises either.
   A random trader draws anew at every step, so its run goes on.

   run_summaries seeds each run's stream from its engine seed as
   np.random.PCG64(seed) does for a seed in [0, 2**64), the seeds that
   Python checks where they enter (engine._stream_seed), so the compiled
   loops step numpy's streams without numpy. Each call steps whole runs,
   each from its seed to its last row, and writes back only the holdings
   it steps; no run goes on in another call.

   crash_step(p, m, cv, av, cm, am, u, kv_buy, kv_sell, km_buy, km_sell,
              eta, lam, mu, zeta, liquidity, ratio, updated, horizon,
              ceiling, stop) -> (code, steps, price)

   steps a checked market of one Val trader (cash cv, asset av, valuation
   u) and one Mo trader (cm, am; 0.0 when absent) from price p and
   momentum m to its first price at or below stop, its horizon or its
   first step that places no order. price is the last price, at or below
   stop where the run crashed, or with code CEILING or DEMAND the price
   the run failed at. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <errno.h>
#include <math.h>
#include <stdint.h>

/* What summarise returns: a run that ended, or the failure it ended at. */
enum { DONE, CEILING, DEMAND };

/* The trader codes of run_summaries: summaries._LOOP_KINDS. */
enum { VAL, MO, RAND_BASIC, RAND_REFINED };

typedef struct {
    double eta, lam, mu, one_minus_mu, zeta, liquidity;
    int ratio, updated;
} Market;

/* The price that the flow q_p, q_s moves p to: the uncapped log move,
   which goes to *uncapped, capped at eta and then at -eta. The power-law
   move is math.copysign(abs(imbalance / liquidity) ** zeta, imbalance),
   infinite where Python's float ** raises OverflowError: where libm
   returns inf or sets errno, an underflow to zero aside. */
static inline double
moved_price(const Market *mk, double p, double q_p, double q_s, double *uncapped)
{
    double dlog, move;

    if (!mk->ratio) {
        errno = 0;
        dlog = pow(fabs((q_p - q_s) / mk->liquidity), mk->zeta);
        if (errno == 0 ? isinf(dlog) : !(errno == ERANGE && dlog == 0.0))
            dlog = INFINITY;
        dlog = copysign(dlog, q_p - q_s);
    }
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

/* math.fsum of x[0..n-1] as CPython 3.11 computes it: Shewchuk's exact
   partials, then their sum from the top down to its first inexact step,
   with the correction that rounds half-even across partials. partials
   holds n doubles, the most a sum of n terms keeps. check_state's bounds
   keep every order, and so every partial, finite, so fsum's branches for
   inf, NaN and intermediate overflow are never taken and are left out.
   Orders are >= 0, so a sum of at most two is one correctly rounded
   addition, and fsum's +0.0 where they sum to zero. */
static double
fsum(const double *x, Py_ssize_t n, double *partials)
{
    Py_ssize_t i, j, k, kept = 0;
    double hi, lo = 0.0, y, yr;

    if (n <= 2) {
        hi = n == 2 ? x[0] + x[1] : n == 1 ? x[0] : 0.0;
        return hi == 0.0 ? 0.0 : hi;
    }
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

/* numpy's SeedSequence constants: the hash constants and multipliers of
   its pool (A) and of its output (B), and the multipliers of its mix. */
static const uint32_t INIT_A = 0x43b0d7e5, MULT_A = 0x931e8875, INIT_B = 0x8b51f9dd,
    MULT_B = 0x58f38ded, MIX_MULT_L = 0xca01f9dd, MIX_MULT_R = 0x4973f715;

/* SeedSequence's hash of a 32-bit word, which steps the hash constant
   *h by mult. */
static inline uint32_t
hashmix(uint32_t v, uint32_t *h, uint32_t mult)
{
    v ^= *h;
    *h *= mult;
    v *= *h;
    return v ^ (v >> 16);
}

/* The stream of np.random.PCG64(seed) for a seed in [0, 2**64): its
   SeedSequence(seed) hashes the seed's 32-bit words, low word first, into
   a pool of four words; the words past the seed's are zeros, as the pool
   pads them, so the seed's word count changes nothing. Each pool word is
   mixed into each other, and generate_state(4, uint64) gives the words
   of PCG64's initial state (0 and 1, high half first) and sequence (2
   and 3), which srandom turns into the increment and the first state. */
static Stream
seeded_stream(uint64_t seed)
{
    uint32_t pool[4] = {(uint32_t)seed, (uint32_t)(seed >> 32), 0, 0}, h = INIT_A, r;
    uint64_t w[4];
    Stream s;
    int i, j;

    for (i = 0; i < 4; i++)
        pool[i] = hashmix(pool[i], &h, MULT_A);
    for (i = 0; i < 4; i++)
        for (j = 0; j < 4; j++)
            if (i != j) {
                r = MIX_MULT_L * pool[j] - MIX_MULT_R * hashmix(pool[i], &h, MULT_A);
                pool[j] = r ^ (r >> 16);
            }
    h = INIT_B;
    for (i = 0; i < 4; i++) {
        r = hashmix(pool[2 * i % 4], &h, MULT_B);
        w[i] = (uint64_t)hashmix(pool[(2 * i + 1) % 4], &h, MULT_B) << 32 | r;
    }
    s.inc = ((u128)w[2] << 64 | w[3]) << 1 | 1;
    s.state = s.inc + ((u128)w[0] << 64 | w[1]);
    uniform(&s);  /* one LCG step; its output is not a draw */
    return s;
}

/* Append a row to series, a bytearray of rows of 6 + nt doubles that
   holds *room rows, *rows of them written: the price p, the momentum m,
   the flow q_p and q_s, the executed volume, cap_hit (1.0 or 0.0) and each
   of the nt traders' wealth, cash + asset * p. A full series first grows
   to 2 * *room + 1 rows. Returns 0, or -1 with an exception set where it
   cannot grow. */
static inline int
record(PyObject *series, Py_ssize_t *rows, Py_ssize_t *room, double p, double m, double q_p,
       double q_s, double executed, double cap_hit, const Trader *tr, Py_ssize_t nt)
{
    Py_ssize_t j, row_size = (6 + nt) * (Py_ssize_t)sizeof(double);
    double *row;

    if (*rows == *room) {
        if (*room > (PY_SSIZE_T_MAX / row_size - 1) / 2) {
            PyErr_NoMemory();
            return -1;
        }
        if (PyByteArray_Resize(series, (2 * *room + 1) * row_size) < 0)
            return -1;
        *room = 2 * *room + 1;
    }
    row = (double *)PyByteArray_AS_STRING(series) + *rows * (6 + nt);
    ++*rows;
    row[0] = p;
    row[1] = m;
    row[2] = q_p;
    row[3] = q_s;
    row[4] = executed;
    row[5] = cap_hit;
    for (j = 0; j < nt; j++)
        row[6 + j] = tr[j].cash + tr[j].asset * p;
    return 0;
}

/* One run from start, its price, momentum, ceiling and stop price, to
   its abort, a price below floor_price, its first price at or below the
   stop price, or its horizon, as engine.run steps it; with idle_stops,
   given only to a run without a random trader or a series, also to its
   first step that places no order, reported as the horizon (the proof is
   above). Its nt traders, of codes kind, are stepped in place, and
   scratch holds 3 * nt doubles. Where series is not NULL, an empty
   bytearray, it gets the start's row, with a zero flow, and then each
   step's (see record), and is cut to those rows at the end. The lowest
   and highest price, the start's among them, and the last price go to
   ends, and the steps to *steps. Returns DONE, or CEILING or DEMAND with
   the offending price as the last, or -1 with an exception set. */
static inline __attribute__((always_inline)) int
summarise(const Market *mk, const double *k, const double *start, double floor_price,
          long long horizon, const unsigned char *kind, Trader *tr, Py_ssize_t nt,
          Stream *stream, double *scratch, PyObject *series, int idle_stops, double *ends,
          long long *steps)
{
    double *bids = scratch, *offers = scratch + nt, *partials = scratch + 2 * nt;
    double p = start[0], m = start[1], ceiling = start[2], stop = start[3];
    double low = p, high = p;
    long long t = 0;
    Py_ssize_t j, rows = 0, room = 0;
    int code = DONE;

    if (series && record(series, &rows, &room, p, m, 0.0, 0.0, 0.0, 0.0, tr, nt) < 0)
        return -1;
    while (t < horizon && !(p < floor_price) && !(p <= stop)) {
        double total_bid, q_p, q_s, dlog, p_new, p_settle, demand;

        t++;
        if ((t & 0xfffff) == 0 && PyErr_CheckSignals() < 0)
            return -1;
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
        /* tested on total_bid: q_p can underflow to 0 for a positive bid */
        if (idle_stops && total_bid == 0.0 && q_s == 0.0) {
            t = horizon;
            break;
        }
        q_p = total_bid / p;
        p_new = moved_price(mk, p, q_p, q_s, &dlog);
        p_settle = mk->updated ? p_new : p;
        demand = total_bid / p_settle;
        /* an infinite demand needs a settlement price below the floor */
        code = !(p_new <= ceiling) ? CEILING : demand == INFINITY ? DEMAND : DONE;
        if (code != DONE) {
            p = p_new;
            break;
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
        if (series && record(series, &rows, &room, p, m, q_p, q_s,
                             q_s < demand ? q_s : demand, fabs(dlog) > mk->eta, tr, nt) < 0)
            return -1;
    }
    if (series && PyByteArray_Resize(series, rows * (6 + nt) * (Py_ssize_t)sizeof(double)) < 0)
        return -1;
    ends[0] = low;
    ends[1] = high;
    ends[2] = p;
    *steps = t;
    return code;
}

static PyObject *
crash_step(PyObject *Py_UNUSED(self), PyObject *args)
{
    static const unsigned char kinds[2] = {VAL, MO};
    Market mk;
    Trader tr[2] = {{0}};
    double start[4], k[6] = {0}, scratch[6], ends[3];
    long long horizon, steps;
    int code;

    if (!PyArg_ParseTuple(args, "ddddddddddddddddppLdd", &start[0], &start[1], &tr[0].cash,
                          &tr[0].asset, &tr[1].cash, &tr[1].asset, &tr[0].u, &k[0], &k[1],
                          &k[2], &k[3], &mk.eta, &mk.lam, &mk.mu, &mk.zeta, &mk.liquidity,
                          &mk.ratio, &mk.updated, &horizon, &start[2], &start[3]))
        return NULL;
    mk.one_minus_mu = 1.0 - mk.mu;
    /* every price below the floor is at or below the stop price */
    code = summarise(&mk, k, start, -INFINITY, horizon, kinds, tr, 2, NULL, scratch, NULL, 1,
                     ends, &steps);
    return code < 0 ? NULL : Py_BuildValue("iLd", code, steps, ends[2]);
}

/* run_summaries(starts, first, kinds, holdings, seeds, commitments,
                 eta, lam, mu, zeta, liquidity, ratio, updated, horizon,
                 floor_price[, series]) -> (code, row, price, rows)

   steps each of n checked runs to its abort, a price below floor_price,
   its first price at or below its stop price, or its horizon, as
   engine.run does, run by run in row order; without a series, a run
   without a random trader stops at its first step that places no order
   (summarise). Run i starts from price, momentum, ceiling and stop price
   starts[4i:4i+4] (doubles; a stop price of -inf never stops a run) with
   traders first[i] to first[i+1] - 1 (first holds n + 1 int64). Trader
   j has the code kinds[j] (bytes) and the cash, asset, valuation,
   critical cash and critical asset holdings[5j:5j+5] (doubles), which
   the run steps in place. Its random traders draw from one stream,
   seeded_stream(seeds[i]) (uint64), read only where it has any.
   commitments holds kv_buy, kv_sell, km_buy, km_sell, kr_buy and
   kr_sell. series, an empty bytearray given for a call of one run of nt
   traders, gets the run's rows of 6 + nt doubles (summarise). rows holds
   the tuple (lowest price, highest price, aborted, steps) of each run
   that ended. code is DONE when every run ended, else CEILING or DEMAND
   of run `row` at `price`, which ends the call. */
static PyObject *
run_summaries(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer starts, first, kinds, holdings, seeds, commitments;
    PyObject *series = NULL, *result = NULL, *rows = NULL;
    long long horizon;
    double eta, lam, mu, zeta, liquidity, floor_price, ends[3] = {0.0}, *scratch = NULL;
    Py_ssize_t n, i, j, most = 1;
    int ratio, updated, code = DONE;

    if (!PyArg_ParseTuple(args, "y*y*y*w*y*y*dddddppLd|Y", &starts, &first, &kinds,
                          &holdings, &seeds, &commitments, &eta, &lam, &mu, &zeta,
                          &liquidity, &ratio, &updated, &horizon, &floor_price, &series))
        return NULL;
    Market mk = {eta, lam, mu, 1.0 - mu, zeta, liquidity, ratio, updated};
    const double *start = starts.buf;
    const double *k = commitments.buf;
    const int64_t *firsts = first.buf;
    const unsigned char *kind = kinds.buf;
    const uint64_t *seed = seeds.buf;
    n = starts.len / (4 * (Py_ssize_t)sizeof(double));
    int valid = first.len == (n + 1) * (Py_ssize_t)sizeof(int64_t) && firsts[0] == 0 &&
        firsts[n] == kinds.len && holdings.len == kinds.len * (Py_ssize_t)sizeof(Trader) &&
        seeds.len == n * (Py_ssize_t)sizeof(uint64_t) &&
        commitments.len == 6 * (Py_ssize_t)sizeof(double) &&
        !(series && (n != 1 || PyByteArray_GET_SIZE(series) != 0));
    for (i = 0; valid && i < n; i++) {
        valid = firsts[i + 1] >= firsts[i];
        most = firsts[i + 1] - firsts[i] > most ? firsts[i + 1] - firsts[i] : most;
    }
    for (j = 0; valid && j < kinds.len; j++)
        valid = kind[j] <= RAND_REFINED;
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
        Stream stream = seeded_stream(seed[i]);
        long long steps;
        int idle_stops = 1;
        PyObject *row;

        for (j = at; j < at + nt; j++)
            idle_stops = idle_stops && kind[j] < RAND_BASIC;
        code = series ?
            summarise(&mk, k, start + 4 * i, floor_price, horizon, kind + at,
                      (Trader *)holdings.buf + at, nt, &stream, scratch, series, 0, ends,
                      &steps) :
            summarise(&mk, k, start + 4 * i, floor_price, horizon, kind + at,
                      (Trader *)holdings.buf + at, nt, &stream, scratch, NULL, idle_stops,
                      ends, &steps);
        if (code < 0)
            goto done;
        if (code != DONE)
            break;
        row = Py_BuildValue("(ddNL)", ends[0], ends[1], PyBool_FromLong(ends[2] < floor_price),
                            steps);
        if (row == NULL)
            goto done;
        j = PyList_Append(rows, row);
        Py_DECREF(row);
        if (j < 0)
            goto done;
    }
    result = Py_BuildValue("indO", code, i, ends[2], rows);
done:
    Py_XDECREF(rows);
    PyMem_Free(scratch);
    PyBuffer_Release(&starts);
    PyBuffer_Release(&first);
    PyBuffer_Release(&kinds);
    PyBuffer_Release(&holdings);
    PyBuffer_Release(&seeds);
    PyBuffer_Release(&commitments);
    return result;
}

static PyMethodDef methods[] = {
    {"crash_step", crash_step, METH_VARARGS, "The crash loop of a Val/Mo market."},
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
