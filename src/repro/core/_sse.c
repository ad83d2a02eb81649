/*
 * SSE_max (Definition 7) in C, over typed columns.
 *
 * SSE_max is the error of collapsing every maximal adjacent run (same
 * group, each interval starting one chronon after the previous one ends)
 * into one tuple.  It is spelled two ways, and each keeps its bits:
 *
 *   - sse_fold() is gPTAeps's running tracker (repro.core.greedy's
 *     _MaxErrorTracker; its Python reference is tests/oracles.py's
 *     sse_fold).  A row that continues the carried run adds
 *     merge_key(run_length, length, run_row, row, w2) to the total and
 *     replaces the run by merged_row's length-weighted mean, in
 *     repro.core.errors.merge_key's and repro.core.merge.merged_row's
 *     operation order: the pairwise update of Chan, Golub and LeVeque
 *     (1983).  Any other row starts a new run.
 *   - sse_max() is repro.core.errors.max_error (its Python reference is
 *     tests/oracles.py's max_error): per maximal run and dimension, the
 *     two-pass sse_of_run of Definition 5, the runs added left to right.
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

/* The tracker's fold of every row into the carried run (length, row)
 * and the running total. */
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

/* repro.core.errors.sse_of_run of rows first .. last (one maximal run). */
static double
run_error(const Columns *c, Py_ssize_t first, Py_ssize_t last)
{
    const double total_length = span_length(c->starts[first], c->ends[last]);
    double error = 0.0;
    Py_ssize_t i, d;
    for (d = 0; d < c->p; d++) {
        double weighted = 0.0, squares = 0.0, mean;
        for (i = first; i <= last; i++)
            weighted += span_length(c->starts[i], c->ends[i])
                        * c->values[i * c->p + d];
        mean = weighted / total_length;
        for (i = first; i <= last; i++) {
            const double deviation = c->values[i * c->p + d] - mean;
            squares += span_length(c->starts[i], c->ends[i])
                       * (deviation * deviation);
        }
        error += c->w2[d] * squares;
    }
    return error;
}

/* repro.core.errors.max_error: the maximal runs' errors, left to right. */
static double
max_error(const Columns *c)
{
    double total = 0.0;
    Py_ssize_t first = 0, last;
    while (first < c->n) {
        last = first;
        while (last + 1 < c->n && continues(c, last + 1))
            last++;
        total += run_error(c, first, last);
        first = last + 1;
    }
    return total;
}

/* The columns, then the carried run's row (sse_fold only). */
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

PyDoc_STRVAR(sse_max_doc,
"sse_max(starts, ends, groups, values, w2)\n"
"--\n\n"
"SSE_max of n rows in group-then-time order: every maximal adjacent run\n"
"collapsed into one tuple, the runs' errors added left to right.  The\n"
"columns are those of sse_fold.");

static PyObject *
sse_max(PyObject *module, PyObject *args)
{
    PyObject *obj[N_BUFFERS];
    Py_buffer buf[N_BUFFERS];
    PyObject *result = NULL;
    Columns c;
    double total;

    memset(buf, 0, sizeof buf);
    if (!PyArg_ParseTuple(args, "OOOOO:sse_max", &obj[IN_STARTS],
                          &obj[IN_ENDS], &obj[IN_GROUPS], &obj[IN_VALUES],
                          &obj[IN_W2]))
        return NULL;
    if (load_columns(obj, buf, &c) < 0)
        goto done;
    if (c.n >= RELEASE_ROWS) {
        Py_BEGIN_ALLOW_THREADS
        total = max_error(&c);
        Py_END_ALLOW_THREADS
    }
    else
        total = max_error(&c);
    result = PyFloat_FromDouble(total);
done:
    release_buffers(buf, N_BUFFERS);
    return result;
}

/* Added to the _activate module by its PyInit. */
PyMethodDef repro_sse_methods[] = {
    {"sse_fold", sse_fold, METH_VARARGS, sse_fold_doc},
    {"sse_max", sse_max, METH_VARARGS, sse_max_doc},
    {NULL, NULL, 0, NULL},
};
