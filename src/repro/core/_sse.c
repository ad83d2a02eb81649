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
 * A length is float(end - start + 1) as Python computes it: the exact
 * unsigned 64-bit difference, converted to double once, and 2^64 for the
 * full int64 span.  Build with -ffp-contract=off: a fused multiply-add
 * changes the bits.  No Python object is touched between the buffer
 * checks and the result, so the interpreter lock is released for a
 * block large enough to be worth it.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

/* Rows below which the lock is kept: a one-row push would otherwise hand
 * the lock to a waiting thread and queue behind it to get it back. */
#define RELEASE_ROWS 1024

typedef struct {
    Py_ssize_t n, p;
    const long long *starts, *ends, *groups;  /* n each */
    const double *values;                     /* n * p, row-major */
    const double *w2;                         /* p */
} Columns;

/* float(end - start + 1) for start <= end. */
static inline double
span_length(long long start, long long end)
{
    const uint64_t difference = (uint64_t)end - (uint64_t)start;
    return difference == UINT64_MAX ? 18446744073709551616.0
                                    : (double)(difference + 1);
}

/* repro.core.merge.adjacent of rows i - 1 and i. */
static inline int
continues(const Columns *c, Py_ssize_t i)
{
    return c->groups[i] == c->groups[i - 1] && c->ends[i - 1] != LLONG_MAX
           && c->ends[i - 1] + 1 == c->starts[i];
}

/* The tracker's fold of every row into the carried run (length, row)
 * and the running total. */
static void
fold(const Columns *c, int first_continues, double *length, double *row,
     double *total)
{
    Py_ssize_t i, d;
    for (i = 0; i < c->n; i++) {
        const double *values = c->values + i * c->p;
        const double right = span_length(c->starts[i], c->ends[i]);
        if (i == 0 ? first_continues : continues(c, i)) {
            const double left = *length, sum = left + right;
            const double factor = left * right / sum;
            double key = 0.0;
            for (d = 0; d < c->p; d++) {
                const double diff = row[d] - values[d];
                key += (c->w2[d] * factor) * (diff * diff);
            }
            *total += key;
            for (d = 0; d < c->p; d++)
                row[d] = (left * row[d] + right * values[d]) / sum;
            *length = sum;
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

/* Gets a C-contiguous buffer of count float64 ('d') or int64 ('q')
 * items. */
static int
typed(PyObject *obj, Py_buffer *view, int flags, char kind,
      Py_ssize_t count, const char *name)
{
    const char *format;
    if (PyObject_GetBuffer(obj, view,
                           flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    format = view->format != NULL ? view->format : "B";
    if (view->itemsize != 8
        || (kind == 'd' ? strcmp(format, "d") != 0
                        : strcmp(format, "q") != 0 && strcmp(format, "l") != 0)) {
        PyErr_Format(PyExc_TypeError, "%s must be a C-contiguous %s buffer",
                     name, kind == 'd' ? "float64" : "int64");
        return -1;
    }
    if (count >= 0 && view->len != count * 8) {
        PyErr_Format(PyExc_ValueError, "%s holds %zd items, expected %zd",
                     name, view->len / 8, count);
        return -1;
    }
    return 0;
}

enum { STARTS, ENDS, GROUPS, VALUES, W2, ROW, N_BUFFERS };

/* Checks the column buffers and points c at them: n rows from starts,
 * p dimensions from w2. */
static int
columns(PyObject **obj, Py_buffer *buf, Columns *c)
{
    Py_ssize_t i;
    if (typed(obj[STARTS], &buf[STARTS], PyBUF_SIMPLE, 'q', -1, "starts") < 0
        || typed(obj[W2], &buf[W2], PyBUF_SIMPLE, 'd', -1, "w2") < 0)
        return -1;
    c->n = buf[STARTS].len / 8;
    c->p = buf[W2].len / 8;
    if (typed(obj[ENDS], &buf[ENDS], PyBUF_SIMPLE, 'q', c->n, "ends") < 0
        || typed(obj[GROUPS], &buf[GROUPS], PyBUF_SIMPLE, 'q', c->n,
                 "groups") < 0
        || typed(obj[VALUES], &buf[VALUES], PyBUF_SIMPLE, 'd', c->n * c->p,
                 "values") < 0)
        return -1;
    c->starts = buf[STARTS].buf;
    c->ends = buf[ENDS].buf;
    c->groups = buf[GROUPS].buf;
    c->values = buf[VALUES].buf;
    c->w2 = buf[W2].buf;
    for (i = 0; i < c->n; i++) {
        if (c->starts[i] > c->ends[i]) {
            PyErr_Format(PyExc_ValueError,
                         "row %zd ends at %lld before it starts at %lld", i,
                         c->ends[i], c->starts[i]);
            return -1;
        }
    }
    return 0;
}

static void
release(Py_buffer *buf)
{
    int b;
    for (b = 0; b < N_BUFFERS; b++) {
        if (buf[b].obj != NULL)
            PyBuffer_Release(&buf[b]);
    }
}

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
    if (!PyArg_ParseTuple(args, "OOOOOpdOd:sse_fold", &obj[STARTS],
                          &obj[ENDS], &obj[GROUPS], &obj[VALUES], &obj[W2],
                          &first_continues, &length, &obj[ROW], &total))
        return NULL;
    if (columns(obj, buf, &c) < 0
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
    release(buf);
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
    if (!PyArg_ParseTuple(args, "OOOOO:sse_max", &obj[STARTS], &obj[ENDS],
                          &obj[GROUPS], &obj[VALUES], &obj[W2]))
        return NULL;
    if (columns(obj, buf, &c) < 0)
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
    release(buf);
    return result;
}

/* Added to the _activate module by its PyInit. */
PyMethodDef repro_sse_methods[] = {
    {"sse_fold", sse_fold, METH_VARARGS, sse_fold_doc},
    {"sse_max", sse_max, METH_VARARGS, sse_max_doc},
    {NULL, NULL, 0, NULL},
};
