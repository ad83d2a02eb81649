/*
 * The merge rule of Proposition 2 in C, spelled once for the four
 * compiled loops (_activate.c, _trajectory.c, _dp.c, _sse.c).
 *
 * Merging adjacent tuples of float lengths l and r and rows a and b costs
 * the sum over d of w2[d] * factor * diff^2, with factor = l * r / (l + r)
 * and diff = a[d] - b[d], summed from 0.0 one dimension at a time
 * (merge_key); the merged tuple has length l + r and the length-weighted
 * mean row (merged_row).  Both keep the operation order of
 * repro.core.errors.merge_key and repro.core.merge.merged_row, the rule's
 * one Python spelling, so every engine computes the same bits.  Build
 * with -ffp-contract=off: a fused multiply-add changes them.
 *
 * Also here: a tuple's float length (span_length), the adjacency rule of
 * Definition 2 (adjacent), the typed-buffer check (typed) and the columns
 * loader of a run of tuples (load_columns) with its release.  The
 * arithmetic touches no Python object, so a loop may run it with the
 * interpreter lock released.
 */
#ifndef REPRO_MERGE_H
#define REPRO_MERGE_H

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

/* float(end - start + 1) for start <= end, as Python computes it: the
 * exact unsigned 64-bit difference, converted to double once, and 2^64
 * for the full int64 span. */
static inline double
span_length(long long start, long long end)
{
    const uint64_t difference = (uint64_t)end - (uint64_t)start;
    return difference == UINT64_MAX ? 18446744073709551616.0
                                    : (double)(difference + 1);
}

/* repro.core.merge.adjacent: the right tuple continues the left one in
 * its group, one chronon after it ends.  An end at the largest int64 has
 * no successor: its end + 1 would wrap. */
static inline int
adjacent(long long left_group, long long left_end, long long right_group,
         long long right_start)
{
    return left_group == right_group && left_end != LLONG_MAX
           && left_end + 1 == right_start;
}

/* repro.core.errors.merge_key of tuples (left_length, a) and
 * (right_length, b) over p dimensions.  -1 when the lengths sum to zero,
 * where Python raises ZeroDivisionError. */
static inline int
merge_key(double left_length, double right_length, const double *a,
          const double *b, const double *w2, Py_ssize_t p, double *key)
{
    const double total = left_length + right_length;
    double factor, diff, sum = 0.0;
    Py_ssize_t d;
    if (total == 0.0)
        return -1;
    factor = left_length * right_length / total;
    for (d = 0; d < p; d++) {
        diff = a[d] - b[d];
        sum += (w2[d] * factor) * (diff * diff);
    }
    *key = sum;
    return 0;
}

/* repro.core.merge.merged_row into out, which may be a or b.  -1 when
 * there is a value to divide and the lengths sum to zero. */
static inline int
merged_row(double left_length, double right_length, const double *a,
           const double *b, Py_ssize_t p, double *out)
{
    const double total = left_length + right_length;
    Py_ssize_t d;
    if (p > 0 && total == 0.0)
        return -1;
    for (d = 0; d < p; d++)
        out[d] = (left_length * a[d] + right_length * b[d]) / total;
    return 0;
}

/* Gets a C-contiguous buffer of count float64 ('d') or int64 ('q')
 * items; count < 0 takes any number. */
static inline int
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

/* n tuples as columns: int64 endpoints and dense group ids, the float64
 * values row by row and the p squared weights. */
typedef struct {
    Py_ssize_t n, p;
    const long long *starts, *ends, *groups;  /* n each */
    const double *values;                     /* n * p, row-major */
    const double *w2;                         /* p */
} Columns;

/* The positions of the columns' buffers in a loop's buffer array; a
 * loop's own buffers follow. */
enum { IN_STARTS, IN_ENDS, IN_GROUPS, IN_VALUES, IN_W2, N_INPUTS };

/* Checks the column buffers obj[IN_STARTS .. IN_W2] into buf and points c
 * at them: n rows from starts, p dimensions from w2, and every row's
 * start at or before its end. */
static inline int
load_columns(PyObject **obj, Py_buffer *buf, Columns *c)
{
    Py_ssize_t i;
    if (typed(obj[IN_STARTS], &buf[IN_STARTS], PyBUF_SIMPLE, 'q', -1,
              "starts") < 0
        || typed(obj[IN_W2], &buf[IN_W2], PyBUF_SIMPLE, 'd', -1, "w2") < 0)
        return -1;
    c->n = buf[IN_STARTS].len / 8;
    c->p = buf[IN_W2].len / 8;
    if (typed(obj[IN_ENDS], &buf[IN_ENDS], PyBUF_SIMPLE, 'q', c->n,
              "ends") < 0
        || typed(obj[IN_GROUPS], &buf[IN_GROUPS], PyBUF_SIMPLE, 'q', c->n,
                 "groups") < 0
        || typed(obj[IN_VALUES], &buf[IN_VALUES], PyBUF_SIMPLE, 'd',
                 c->n * c->p, "values") < 0)
        return -1;
    c->starts = buf[IN_STARTS].buf;
    c->ends = buf[IN_ENDS].buf;
    c->groups = buf[IN_GROUPS].buf;
    c->values = buf[IN_VALUES].buf;
    c->w2 = buf[IN_W2].buf;
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

/* Does row i continue row i - 1 of the columns? */
static inline int
continues(const Columns *c, Py_ssize_t i)
{
    return adjacent(c->groups[i - 1], c->ends[i - 1], c->groups[i],
                    c->starts[i]);
}

/* Releases the count buffers of buf that were got. */
static inline void
release_buffers(Py_buffer *buf, int count)
{
    int b;
    for (b = 0; b < count; b++) {
        if (buf[b].obj != NULL)
            PyBuffer_Release(&buf[b]);
    }
}

#endif /* REPRO_MERGE_H */
