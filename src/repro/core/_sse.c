/*
 * SSE_max (Definition 7) in C, over typed columns: the one SSE_max of
 * every error budget.
 *
 * SSE_max is the error of collapsing every maximal adjacent run (same
 * group, each interval starting one chronon after the previous one ends)
 * into one tuple.  sse_fold() folds the rows into it left to right: a
 * row that continues the carried run adds
 * merge_key(run_length, length, run_row, row, w2) to the total and
 * replaces the run by merged_row's length-weighted mean, in
 * repro.core.errors.merge_key's and repro.core.merge.merged_row's
 * operation order: the pairwise update of Chan, Golub and LeVeque
 * (1983).  Any other row starts a new run.  repro.core.errors.max_error
 * is one call over the whole input, and gPTAeps's streaming tracker
 * (repro.core.greedy's _MaxErrorTracker) one call per chunk; the carry
 * is doubles, so both give the same bits.  The Python reference is
 * tests/oracles.py's sse_fold.
 *
 * Lengths, the adjacency rule, merge_key, merged_row and the columns
 * loader come from _merge.h.  Build with -ffp-contract=off: a fused
 * multiply-add changes the bits.  No Python object is touched between the
 * buffer checks and the result, so the interpreter lock is released for
 * a block large enough to be worth it.
 */
#include "_merge.h"

/* Rows below which the lock is kept: a one-row push would otherwise hand
 * the lock to a waiting thread and queue behind it to get it back. */
#define RELEASE_ROWS 1024

/* The fold of every row into the carried run (length, row) and the
 * running total. */
static void
fold(const Columns *c, int first_continues, double *length, double *row,
     double *total)
{
    Py_ssize_t i;
    for (i = 0; i < c->n; i++) {
        const double *values = c->values + i * c->p;
        const double right = span_length(c->starts[i], c->ends[i]);
        if (i == 0 ? first_continues : continues(c, i)) {
            double key = 0.0;
            merge_key(*length, right, row, values, c->w2, c->p, &key);
            *total += key;
            merged_row(*length, right, row, values, c->p, row);
            *length += right;
        }
        else {
            memcpy(row, values, (size_t)c->p * sizeof(double));
            *length = right;
        }
    }
}

/* The columns, then the carried run's row. */
enum { ROW = N_INPUTS, N_BUFFERS };

PyDoc_STRVAR(sse_fold_doc,
"sse_fold(starts, ends, groups, values, w2, first_continues, length, row, total)\n"
"--\n\n"
"Fold n rows into a carried run and a running SSE_max total.\n"
"starts, ends and groups are n int64 items (dense group ids), values\n"
"the n * p float64 values row by row and w2 the p float64 squared\n"
"weights.  The carried run is its float length and its p float64 values\n"
"in row, a writable buffer updated in place.  first_continues says\n"
"whether the first row continues the carried run; every later row\n"
"continues it when it has the previous row's group and starts one\n"
"chronon after it ends.  Returns the new (length, total).");

static PyObject *
sse_fold(PyObject *module, PyObject *args)
{
    PyObject *obj[N_BUFFERS];
    Py_buffer buf[N_BUFFERS];
    PyObject *result = NULL;
    Columns c;
    double length, total;
    int first_continues;

    memset(buf, 0, sizeof buf);
    if (!PyArg_ParseTuple(args, "OOOOOpdOd:sse_fold", &obj[IN_STARTS],
                          &obj[IN_ENDS], &obj[IN_GROUPS], &obj[IN_VALUES],
                          &obj[IN_W2], &first_continues, &length, &obj[ROW],
                          &total))
        return NULL;
    if (load_columns(obj, buf, &c) < 0
        || typed(obj[ROW], &buf[ROW], PyBUF_WRITABLE, 'd', c.p, "row") < 0)
        goto done;
    if (c.n >= RELEASE_ROWS) {
        Py_BEGIN_ALLOW_THREADS
        fold(&c, first_continues, &length, buf[ROW].buf, &total);
        Py_END_ALLOW_THREADS
    }
    else
        fold(&c, first_continues, &length, buf[ROW].buf, &total);
    result = Py_BuildValue("(dd)", length, total);
done:
    release_buffers(buf, N_BUFFERS);
    return result;
}

/* Added to the _activate module by its PyInit. */
PyMethodDef repro_sse_methods[] = {
    {"sse_fold", sse_fold, METH_VARARGS, sse_fold_doc},
    {NULL, NULL, 0, NULL},
};
