/*
 * One row of the exact DP's error matrix in C.
 *
 * dp_row() fills the cells i = first .. first + m - 1 of row k >= 2 of
 * E[k][i] = min_j E[k-1][j] + SSE(s_{j+1} .. s_i) (Section 5.1), the loop
 * of tests/oracles.py's dp_fill_next_row, over typed buffers
 * only: the prefix sums L, S and SS of Proposition 1, the squared weights,
 * the previous row, and per cell the lowest split point j_lo and the
 * "infeasible below" bound of the plain scheme.  Each cell is the
 * oracle's best_split:
 *
 *   - every candidate j = i - 1 .. j_lo is scanned, with no early break:
 *     cancellation in the prefix sums can make run errors shrink as j
 *     falls;
 *   - ties go to the largest j, and the first NaN wins, as np.argmin over
 *     the reversed totals; an infinite minimum yields (inf, 0);
 *   - the run error is PrefixSums.sse's order: per dimension d,
 *     dev = dSS - dS * dS / length, clamped to >= 0 with NaN kept (as
 *     np.maximum), and acc += w2[d] * dev from 0.0.
 *
 * So the row and its split points are the oracle's, bit for bit.
 * The buffer checks are _merge.h's.  Build with -ffp-contract=off: a fused
 * multiply-add changes the bits of a run error.  No Python object is
 * touched between the buffer checks and the result, so the interpreter
 * lock is released for the whole row.
 */
#include "_merge.h"
#include <math.h>

typedef struct {
    Py_ssize_t n, p, first, cells;
    const double *L, *S, *SS, *w2, *previous;  /* S, SS: p rows of n + 1 */
    const long long *j_lo, *infeasible;        /* cells each */
    double *row;                               /* n + 1 */
    long long *splits;                         /* n + 1 */
} Row;

/* repro.core.errors.PrefixSums.sse of segments j .. i - 1 (0-based). */
static inline double
run_error(const Row *r, Py_ssize_t j, Py_ssize_t i)
{
    const double length = r->L[i] - r->L[j];
    const Py_ssize_t stride = r->n + 1;
    double acc = 0.0;
    Py_ssize_t d;
    for (d = 0; d < r->p; d++) {
        const double sum = r->S[d * stride + i] - r->S[d * stride + j];
        const double square = r->SS[d * stride + i] - r->SS[d * stride + j];
        double dev = square - sum * sum / length;
        if (dev < 0.0)
            dev = 0.0;
        acc += r->w2[d] * dev;
    }
    return acc;
}

static long long
fill(const Row *r)
{
    long long candidates = 0;
    Py_ssize_t c, i, j;
    for (c = 0; c < r->cells; c++) {
        const Py_ssize_t lo = (Py_ssize_t)r->j_lo[c];
        const long long below = r->infeasible[c];
        double best = HUGE_VAL, total;
        Py_ssize_t split = 0;
        i = r->first + c;
        candidates += i - lo;
        for (j = i - 1; j >= lo; j--) {
            total = j < below ? HUGE_VAL : r->previous[j] + run_error(r, j, i);
            if (total < best || (isnan(total) && !isnan(best))) {
                best = total;
                split = j;
            }
        }
        if (isinf(best)) {
            best = HUGE_VAL;
            split = 0;
        }
        r->row[i] = best;
        r->splits[i] = split;
    }
    return candidates;
}

PyDoc_STRVAR(dp_row_doc,
"dp_row(L, S, SS, w2, previous, j_lo, infeasible, first, row, splits)\n"
"--\n\n"
"Fill cells first .. first + m - 1 of one error-matrix row k >= 2.\n"
"L (n + 1), S and SS (p * (n + 1), dimension-major) are float64 prefix\n"
"sums, w2 the p float64 squared weights and previous the n + 1 float64\n"
"cells of row k - 1.  j_lo and infeasible hold m int64 bounds, one per\n"
"cell i: the lowest split point scanned (0 <= j_lo <= i) and the split\n"
"points below which the run crosses a gap.  Writes row[i] and splits[i]\n"
"(n + 1 float64 / int64 each) and returns the number of candidates\n"
"scanned.");

static PyObject *
dp_row(PyObject *module, PyObject *args)
{
    enum { L, S, SS, W2, PREVIOUS, J_LO, INFEASIBLE, ROW, SPLITS, N_BUFFERS };
    PyObject *obj[N_BUFFERS];
    Py_buffer buf[N_BUFFERS];
    Py_ssize_t first, c, n, p, cells;
    long long candidates;
    PyObject *result = NULL;
    Row r;

    memset(buf, 0, sizeof buf);
    if (!PyArg_ParseTuple(args, "OOOOOOOnOO:dp_row", &obj[L], &obj[S],
                          &obj[SS], &obj[W2], &obj[PREVIOUS], &obj[J_LO],
                          &obj[INFEASIBLE], &first, &obj[ROW], &obj[SPLITS]))
        return NULL;
    /* The sizes come from L, w2 and j_lo; every other buffer must match. */
    if (typed(obj[L], &buf[L], PyBUF_SIMPLE, 'd', -1, "L") < 0
        || typed(obj[W2], &buf[W2], PyBUF_SIMPLE, 'd', -1, "w2") < 0
        || typed(obj[J_LO], &buf[J_LO], PyBUF_SIMPLE, 'q', -1, "j_lo") < 0)
        goto done;
    n = buf[L].len / 8 - 1;
    p = buf[W2].len / 8;
    cells = buf[J_LO].len / 8;
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "L must hold at least one item");
        goto done;
    }
    if (typed(obj[S], &buf[S], PyBUF_SIMPLE, 'd', p * (n + 1), "S") < 0
        || typed(obj[SS], &buf[SS], PyBUF_SIMPLE, 'd', p * (n + 1), "SS") < 0
        || typed(obj[PREVIOUS], &buf[PREVIOUS], PyBUF_SIMPLE, 'd', n + 1,
                 "previous") < 0
        || typed(obj[INFEASIBLE], &buf[INFEASIBLE], PyBUF_SIMPLE, 'q', cells,
                 "infeasible") < 0
        || typed(obj[ROW], &buf[ROW], PyBUF_WRITABLE, 'd', n + 1, "row") < 0
        || typed(obj[SPLITS], &buf[SPLITS], PyBUF_WRITABLE, 'q', n + 1,
                 "splits") < 0)
        goto done;
    if (first < 1 || first > n + 1 || cells > n - first + 1) {
        PyErr_Format(PyExc_ValueError,
                     "cells %zd .. %zd lie outside the row's 1 .. %zd",
                     first, first + cells - 1, n);
        goto done;
    }
    r.j_lo = buf[J_LO].buf;
    for (c = 0; c < cells; c++) {
        if (r.j_lo[c] < 0 || r.j_lo[c] > first + c) {
            PyErr_Format(PyExc_ValueError,
                         "j_lo[%zd] = %lld lies outside 0 .. %zd", c,
                         r.j_lo[c], first + c);
            goto done;
        }
    }
    r.n = n;
    r.p = p;
    r.first = first;
    r.cells = cells;
    r.L = buf[L].buf;
    r.S = buf[S].buf;
    r.SS = buf[SS].buf;
    r.w2 = buf[W2].buf;
    r.previous = buf[PREVIOUS].buf;
    r.infeasible = buf[INFEASIBLE].buf;
    r.row = buf[ROW].buf;
    r.splits = buf[SPLITS].buf;

    Py_BEGIN_ALLOW_THREADS
    candidates = fill(&r);
    Py_END_ALLOW_THREADS

    result = PyLong_FromLongLong(candidates);
done:
    release_buffers(buf, N_BUFFERS);
    return result;
}

/* Added to the _activate module by its PyInit. */
PyMethodDef repro_dp_methods[] = {
    {"dp_row", dp_row, METH_VARARGS, dp_row_doc},
    {NULL, NULL, 0, NULL},
};
