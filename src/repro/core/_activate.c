/*
 * The online activate-then-drain loop of NumpyMergeHeap in C, the only
 * code that writes that heap.
 *
 * activate() is the body of NumpyMergeHeap.activate_staged_all (the fused
 * inner loop of the paper's gPTAc / gPTAeps, Fig. 11 / Fig. 13), of a
 * single OnlineReducer.push (one staged row) and of the end-of-input phase
 * (NumpyMergeHeap.merge_down: no staged rows, the online drain with the
 * gap rules off).  Its Python reference is tests/oracles.py's activate.
 * It runs over the heap's Python objects: the heap's list columns, its
 * heapq entry list of (key, counter, index, version) tuples and, when
 * given, the eight lists of a DeltaLog.  Every activation key, merge
 * key, merged row and adjacency test is _merge.h's, computed on a row's
 * floats read into a per-call scratch; branches and the heapq sift
 * algorithm are those of the Python reference, so both leave the same
 * objects behind, bit for bit.  Build with -ffp-contract=off: a fused
 * multiply-add changes the bits of a key.
 *
 * Every read is checked (list bounds, exact float / int64 types, row
 * widths); a violation raises instead of crashing.  The GIL is dropped
 * and retaken during a large push so other threads keep running, as
 * they do between a Python loop's bytecodes (see yield_period).
 */
#include "_merge.h"
#include <math.h>
#include <time.h>

/* Activations and merges between two looks at the clock. */
#define YIELD_CHECK 256

#define LIST_ITEMS(op) (((PyListObject *)(op))->ob_item)
#define TUPLE_ITEMS(op) (((PyTupleObject *)(op))->ob_item)

enum {
    C_START, C_END, C_GROUP, C_PREV, C_NEXT, C_KEY, C_VERSION, C_ALIVE,
    C_NODE_ID, C_VALUES, C_LENGTH, C_GROUP_KEYS, N_COLUMNS
};

static const char *column_names[N_COLUMNS] = {
    "_start", "_end", "_group", "_prev", "_next", "_key", "_version",
    "_alive", "_node_id", "_values", "_length", "_group_keys",
};

enum {
    L_INSERT_IDS, L_INSERT_STARTS, L_INSERT_ENDS, L_INSERT_GROUPS,
    L_INSERT_VALUES, L_MERGE_ABSORBED, L_MERGE_SURVIVORS, L_MERGE_VALUES,
    N_LOG
};

typedef struct {
    PyObject *col[N_COLUMNS];  /* borrowed from the columns tuple */
    PyObject *entries;
    PyObject *log[N_LOG];      /* all NULL when no log is kept */
    double *w2;
    double *scratch;           /* 2 * p: two rows' floats */
    Py_ssize_t p;
} Heap;

static PyObject *inf_obj;       /* the key of a tuple with no adjacent predecessor */

/* ------------------------------------------------------------------ */
/* Checked column access                                               */
/* ------------------------------------------------------------------ */
static PyObject *
item(Heap *h, int c, Py_ssize_t row)
{
    PyObject *list = h->col[c];
    if (row < 0 || row >= PyList_GET_SIZE(list)) {
        PyErr_Format(PyExc_IndexError, "heap column %s has no row %zd",
                     column_names[c], row);
        return NULL;
    }
    return PyList_GET_ITEM(list, row);
}

static int
not_kernel_value(int c, Py_ssize_t row)
{
    PyErr_Format(PyExc_TypeError,
                 "heap column %s row %zd holds a value the compiled "
                 "activation loop does not read", column_names[c], row);
    return -1;
}

static int
read_i64(Heap *h, int c, Py_ssize_t row, long long *out)
{
    PyObject *o = item(h, c, row);
    int overflow;
    if (o == NULL)
        return -1;
    if (!PyLong_CheckExact(o))
        return not_kernel_value(c, row);
    *out = PyLong_AsLongLongAndOverflow(o, &overflow);
    if (overflow)
        return not_kernel_value(c, row);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

/* A link (prev / next): -1 or a row of the heap. */
static int
read_link(Heap *h, int c, Py_ssize_t row, Py_ssize_t *out)
{
    long long v;
    if (read_i64(h, c, row, &v) < 0)
        return -1;
    if (v < -1 || v >= PyList_GET_SIZE(h->col[c])) {
        PyErr_Format(PyExc_IndexError, "heap column %s row %zd links to "
                     "missing row %lld", column_names[c], row, v);
        return -1;
    }
    *out = (Py_ssize_t)v;
    return 0;
}

static int
read_f64(Heap *h, int c, Py_ssize_t row, double *out)
{
    PyObject *o = item(h, c, row);
    if (o == NULL)
        return -1;
    if (!PyFloat_CheckExact(o))
        return not_kernel_value(c, row);
    *out = PyFloat_AS_DOUBLE(o);
    return 0;
}

/* A value row, an exact tuple or list of p exact floats, into out. */
static int
read_row(Heap *h, Py_ssize_t row, double *out)
{
    PyObject *o = item(h, C_VALUES, row), **items;
    Py_ssize_t n, d;
    if (o == NULL)
        return -1;
    if (PyTuple_CheckExact(o)) {
        items = TUPLE_ITEMS(o);
        n = PyTuple_GET_SIZE(o);
    }
    else if (PyList_CheckExact(o)) {
        items = LIST_ITEMS(o);
        n = PyList_GET_SIZE(o);
    }
    else
        return not_kernel_value(C_VALUES, row);
    if (n != h->p)
        return not_kernel_value(C_VALUES, row);
    for (d = 0; d < n; d++) {
        if (!PyFloat_CheckExact(items[d]))
            return not_kernel_value(C_VALUES, row);
        out[d] = PyFloat_AS_DOUBLE(items[d]);
    }
    return 0;
}

/* Store a new reference (stolen) in a column, releasing the old one. */
static int
store(Heap *h, int c, Py_ssize_t row, PyObject *value)
{
    PyObject *old;
    if (value == NULL)
        return -1;
    old = item(h, c, row);
    if (old == NULL) {
        Py_DECREF(value);
        return -1;
    }
    PyList_SET_ITEM(h->col[c], row, value);
    Py_DECREF(old);
    return 0;
}

static int
store_i64(Heap *h, int c, Py_ssize_t row, long long value)
{
    return store(h, c, row, PyLong_FromLongLong(value));
}

/* _merge.h's adjacent() of rows left and right. */
static int
rows_adjacent(Heap *h, Py_ssize_t left, Py_ssize_t right)
{
    long long left_group, right_group, end, start;
    if (read_i64(h, C_GROUP, left, &left_group) < 0
        || read_i64(h, C_GROUP, right, &right_group) < 0
        || read_i64(h, C_END, left, &end) < 0
        || read_i64(h, C_START, right, &start) < 0)
        return -1;
    return adjacent(left_group, end, right_group, start);
}

/* ------------------------------------------------------------------ */
/* Letting go of the GIL                                               */
/* ------------------------------------------------------------------ */
static double
monotonic(void)
{
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    return (double)now.tv_sec + (double)now.tv_nsec * 1e-9;
}

/* Seconds between two releases of the GIL: twice sys.getswitchinterval().
 * A thread waiting for the GIL asks for it only after a whole switch
 * interval in which no release woke it, and each release restarts that
 * wait: releases closer together than the interval starve it.  Once it
 * has asked, the next release hands the GIL over (forced switching). */
static int
yield_period(double *period)
{
    PyObject *get = PySys_GetObject("getswitchinterval"), *interval;
    if (get == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "lost sys.getswitchinterval");
        return -1;
    }
    interval = PyObject_CallNoArgs(get);
    if (interval == NULL)
        return -1;
    *period = 2.0 * PyFloat_AsDouble(interval);
    Py_DECREF(interval);
    return PyErr_Occurred() ? -1 : 0;
}

typedef struct {
    double period, released;
    long long steps;
} Clock;

/* One step of the loop (an activation or a merge): every YIELD_CHECK
 * steps, let go of the GIL if a period has passed since the last time. */
static int
tick(Clock *clock)
{
    if (++clock->steps % YIELD_CHECK != 0
        || monotonic() - clock->released < clock->period)
        return 0;
    Py_BEGIN_ALLOW_THREADS
    Py_END_ALLOW_THREADS
    clock->released = monotonic();
    return PyErr_CheckSignals();
}

/* ------------------------------------------------------------------ */
/* merge_key / merged_row (_merge.h) over the heap's rows              */
/* ------------------------------------------------------------------ */
static void
zero_length(void)
{
    PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
}

/* The lengths of rows left and right, and their floats in the scratch:
 * left's first, right's after it. */
static int
read_pair(Heap *h, Py_ssize_t left, Py_ssize_t right, double *left_length,
          double *right_length)
{
    if (read_f64(h, C_LENGTH, left, left_length) < 0
        || read_f64(h, C_LENGTH, right, right_length) < 0
        || read_row(h, left, h->scratch) < 0
        || read_row(h, right, h->scratch + h->p) < 0)
        return -1;
    return 0;
}

/* The merge key of the adjacent pair (left, right), as a new float. */
static PyObject *
pair_key(Heap *h, Py_ssize_t left, Py_ssize_t right, double *key)
{
    double left_length, right_length;
    if (read_pair(h, left, right, &left_length, &right_length) < 0)
        return NULL;
    if (merge_key(left_length, right_length, h->scratch, h->scratch + h->p,
                  h->w2, h->p, key) < 0) {
        zero_length();
        return NULL;
    }
    return PyFloat_FromDouble(*key);
}

/* The merged row of (left, right) as a new list, and its length: the
 * span_length of the merged interval, as the python heap takes it. */
static PyObject *
merge_rows(Heap *h, Py_ssize_t left, Py_ssize_t right, double *length)
{
    double left_length, right_length;
    long long start, end;
    PyObject *row, *value;
    Py_ssize_t d;
    if (read_pair(h, left, right, &left_length, &right_length) < 0
        || read_i64(h, C_START, left, &start) < 0
        || read_i64(h, C_END, right, &end) < 0)
        return NULL;
    if (merged_row(left_length, right_length, h->scratch, h->scratch + h->p,
                   h->p, h->scratch) < 0) {
        zero_length();
        return NULL;
    }
    row = PyList_New(h->p);
    if (row == NULL)
        return NULL;
    for (d = 0; d < h->p; d++) {
        value = PyFloat_FromDouble(h->scratch[d]);
        if (value == NULL) {
            Py_DECREF(row);
            return NULL;
        }
        PyList_SET_ITEM(row, d, value);
    }
    *length = span_length(start, end);
    return row;
}

/* ------------------------------------------------------------------ */
/* heapq over the entry list                                            */
/* ------------------------------------------------------------------ */
/* entry_a < entry_b as tuple comparison decides it.  Entries are
 * (float key, int counter, ...): distinct keys, or equal keys and
 * distinct int64 counters, are decided here; anything else (a NaN key,
 * a foreign entry) by the tuples' own comparison. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b)
        && PyTuple_GET_SIZE(a) >= 2 && PyTuple_GET_SIZE(b) >= 2) {
        PyObject *ka = PyTuple_GET_ITEM(a, 0), *kb = PyTuple_GET_ITEM(b, 0);
        if (PyFloat_CheckExact(ka) && PyFloat_CheckExact(kb)) {
            double x = PyFloat_AS_DOUBLE(ka), y = PyFloat_AS_DOUBLE(kb);
            if (x < y)
                return 1;
            if (x > y)
                return 0;
            if (x == y) {
                PyObject *ca = PyTuple_GET_ITEM(a, 1);
                PyObject *cb = PyTuple_GET_ITEM(b, 1);
                if (PyLong_CheckExact(ca) && PyLong_CheckExact(cb)) {
                    int oa, ob;
                    long long u = PyLong_AsLongLongAndOverflow(ca, &oa);
                    long long v = PyLong_AsLongLongAndOverflow(cb, &ob);
                    if (!oa && !ob && u != v)
                        return u < v;
                }
            }
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

static int
size_changed(void)
{
    PyErr_SetString(PyExc_RuntimeError, "list changed size during iteration");
    return -1;
}

/* _heapq's siftdown: move the item at pos up towards startpos. */
static int
siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    Py_ssize_t size = PyList_GET_SIZE(heap), parentpos;
    PyObject *newitem, *parent, **arr;
    int cmp;
    while (pos > startpos) {
        parentpos = (pos - 1) >> 1;
        arr = LIST_ITEMS(heap);
        newitem = arr[pos];
        parent = arr[parentpos];
        Py_INCREF(newitem);
        Py_INCREF(parent);
        cmp = entry_lt(newitem, parent);
        Py_DECREF(parent);
        Py_DECREF(newitem);
        if (cmp < 0)
            return -1;
        if (size != PyList_GET_SIZE(heap))
            return size_changed();
        if (cmp == 0)
            break;
        arr = LIST_ITEMS(heap);
        parent = arr[parentpos];
        arr[parentpos] = arr[pos];
        arr[pos] = parent;
        pos = parentpos;
    }
    return 0;
}

/* _heapq's siftup: move the smaller child up to a leaf, then siftdown. */
static int
siftup(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t endpos = PyList_GET_SIZE(heap), startpos = pos, childpos;
    Py_ssize_t limit = endpos >> 1;
    PyObject *a, *b, *tmp, **arr;
    int cmp;
    while (pos < limit) {
        childpos = 2 * pos + 1;
        if (childpos + 1 < endpos) {
            arr = LIST_ITEMS(heap);
            a = arr[childpos];
            b = arr[childpos + 1];
            Py_INCREF(a);
            Py_INCREF(b);
            cmp = entry_lt(a, b);
            Py_DECREF(a);
            Py_DECREF(b);
            if (cmp < 0)
                return -1;
            childpos += ((unsigned)cmp ^ 1);
            if (endpos != PyList_GET_SIZE(heap))
                return size_changed();
        }
        arr = LIST_ITEMS(heap);
        tmp = arr[childpos];
        arr[childpos] = arr[pos];
        arr[pos] = tmp;
        pos = childpos;
    }
    return siftdown(heap, startpos, pos);
}

/* heapq.heappush(heap, (key, counter, index, version)); steals key. */
static int
heap_push(PyObject *heap, PyObject *key, long long counter, Py_ssize_t index,
          long long version)
{
    PyObject *entry = PyTuple_New(4);
    PyObject *counter_obj = PyLong_FromLongLong(counter);
    PyObject *index_obj = PyLong_FromSsize_t(index);
    PyObject *version_obj = PyLong_FromLongLong(version);
    int status;
    if (key == NULL || entry == NULL || counter_obj == NULL
        || index_obj == NULL || version_obj == NULL) {
        Py_XDECREF(key);
        Py_XDECREF(entry);
        Py_XDECREF(counter_obj);
        Py_XDECREF(index_obj);
        Py_XDECREF(version_obj);
        return -1;
    }
    PyTuple_SET_ITEM(entry, 0, key);
    PyTuple_SET_ITEM(entry, 1, counter_obj);
    PyTuple_SET_ITEM(entry, 2, index_obj);
    PyTuple_SET_ITEM(entry, 3, version_obj);
    status = PyList_Append(heap, entry);
    Py_DECREF(entry);
    if (status < 0)
        return -1;
    return siftdown(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* heapq.heappop(heap), discarding the popped entry. */
static int
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last, *top;
    int status = 0;
    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "index out of range");
        return -1;
    }
    /* Shrink as _heapq does, so the list's allocation follows the same
     * sizes as under heapq. */
    last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return -1;
    }
    if (n == 1) {
        Py_DECREF(last);
        return 0;
    }
    top = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last);
    status = siftup(heap, 0);
    Py_DECREF(top);
    return status;
}

/* ------------------------------------------------------------------ */
/* Delta log                                                           */
/* ------------------------------------------------------------------ */
static int
log_append(Heap *h, int column, PyObject *value)
{
    if (value == NULL)
        return -1;
    return PyList_Append(h->log[column], value);
}

static int
record_insert(Heap *h, Py_ssize_t index)
{
    long long group;
    PyObject *group_key;
    if (read_i64(h, C_GROUP, index, &group) < 0)
        return -1;
    if (group < 0 || group >= PyList_GET_SIZE(h->col[C_GROUP_KEYS])) {
        PyErr_Format(PyExc_IndexError, "heap has no group %lld", group);
        return -1;
    }
    group_key = PyList_GET_ITEM(h->col[C_GROUP_KEYS], group);
    if (log_append(h, L_INSERT_IDS, item(h, C_NODE_ID, index)) < 0
        || log_append(h, L_INSERT_STARTS, item(h, C_START, index)) < 0
        || log_append(h, L_INSERT_ENDS, item(h, C_END, index)) < 0
        || log_append(h, L_INSERT_GROUPS, group_key) < 0
        || log_append(h, L_INSERT_VALUES, item(h, C_VALUES, index)) < 0)
        return -1;
    return 0;
}

static int
record_merge(Heap *h, Py_ssize_t absorbed, Py_ssize_t survivor,
             PyObject *merged)
{
    if (log_append(h, L_MERGE_ABSORBED, item(h, C_NODE_ID, absorbed)) < 0
        || log_append(h, L_MERGE_SURVIVORS, item(h, C_NODE_ID, survivor)) < 0
        || log_append(h, L_MERGE_VALUES, merged) < 0)
        return -1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* The loop                                                            */
/* ------------------------------------------------------------------ */
/* Refresh the merge key of `index` against its predecessor `before`,
 * as the Python reference does after a merge: a new entry when adjacent,
 * inf otherwise; the version is bumped either way. */
static int
refresh_key(Heap *h, Py_ssize_t before, Py_ssize_t index, long long *counter)
{
    long long version;
    double key;
    PyObject *key_obj;
    int adj = before >= 0 ? rows_adjacent(h, before, index) : 0;
    if (adj < 0 || read_i64(h, C_VERSION, index, &version) < 0)
        return -1;
    if (version == LLONG_MAX)
        return not_kernel_value(C_VERSION, index);
    version += 1;
    if (!adj) {
        Py_INCREF(inf_obj);
        if (store(h, C_KEY, index, inf_obj) < 0)
            return -1;
        return store_i64(h, C_VERSION, index, version);
    }
    key_obj = pair_key(h, before, index, &key);
    if (key_obj == NULL)
        return -1;
    Py_INCREF(key_obj);
    if (store(h, C_KEY, index, key_obj) < 0) {
        Py_DECREF(key_obj);
        return -1;
    }
    if (store_i64(h, C_VERSION, index, version) < 0) {
        Py_DECREF(key_obj);
        return -1;
    }
    *counter += 1;
    return heap_push(h->entries, key_obj, *counter, index, version);
}

/* Is entry (key, counter, index, version) still current?  Sets *index
 * and *key when it is. */
static int
entry_valid(Heap *h, PyObject *entry, Py_ssize_t *index, double *key)
{
    PyObject *entry_key, *entry_version, *alive, *current;
    long long row, version, expected;
    int overflow, truth;
    if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "heap entries must be (key, counter, index, version)");
        return -1;
    }
    entry_key = PyTuple_GET_ITEM(entry, 0);
    entry_version = PyTuple_GET_ITEM(entry, 3);
    if (!PyLong_CheckExact(PyTuple_GET_ITEM(entry, 2))
        || !PyLong_CheckExact(entry_version)) {
        PyErr_SetString(PyExc_TypeError,
                        "heap entries must carry int index and version");
        return -1;
    }
    row = PyLong_AsLongLongAndOverflow(PyTuple_GET_ITEM(entry, 2), &overflow);
    if (overflow || row < 0 || row >= PyList_GET_SIZE(h->col[C_ALIVE])) {
        PyErr_SetString(PyExc_IndexError, "heap entry names a missing row");
        return -1;
    }
    alive = PyList_GET_ITEM(h->col[C_ALIVE], row);
    truth = alive == Py_True ? 1 : alive == Py_False ? 0 : PyObject_IsTrue(alive);
    if (truth <= 0)
        return truth;
    if (read_i64(h, C_VERSION, (Py_ssize_t)row, &version) < 0)
        return -1;
    expected = PyLong_AsLongLongAndOverflow(entry_version, &overflow);
    if (overflow || version != expected)
        return 0;
    current = item(h, C_KEY, (Py_ssize_t)row);
    if (current == NULL)
        return -1;
    if (!PyFloat_CheckExact(current) || !PyFloat_CheckExact(entry_key))
        return not_kernel_value(C_KEY, (Py_ssize_t)row);
    if (PyFloat_AS_DOUBLE(current) != PyFloat_AS_DOUBLE(entry_key))
        return 0;
    *index = (Py_ssize_t)row;
    *key = PyFloat_AS_DOUBLE(entry_key);
    return 1;
}

/* At least `delta` successors chained to `index` by adjacency? */
static int
has_read_ahead(Heap *h, Py_ssize_t index, long long delta)
{
    long long count = 0;
    Py_ssize_t cursor = index, successor;
    int adj;
    while (count < delta) {
        if (read_link(h, C_NEXT, cursor, &successor) < 0)
            return -1;
        if (successor < 0)
            break;
        adj = rows_adjacent(h, cursor, successor);
        if (adj <= 0) {
            if (adj < 0)
                return -1;
            break;
        }
        count += 1;
        cursor = successor;
    }
    return count >= delta;
}

typedef struct {
    int size_bounded;
    long long size;
    double step_threshold;
    int delta_is_inf;
    long long delta;
    double budget;  /* the end-of-input error budget (inf: none) */
} Policy;

typedef struct {
    long long counter, live, max_size, head, tail;
    PyObject *last_gap_id;  /* owned */
    long long last_gap, before_gap, after_gap, merges;
    double total_error;
} Book;

/* Fold the top into its predecessor and refresh both neighbours' keys. */
static int
merge_top(Heap *h, Book *b, Py_ssize_t top)
{
    Py_ssize_t predecessor, successor, before;
    double length;
    PyObject *merged, *end;
    if (read_link(h, C_PREV, top, &predecessor) < 0)
        return -1;
    if (predecessor < 0) {
        PyErr_SetString(PyExc_RuntimeError,
                        "a mergeable heap row has no predecessor");
        return -1;
    }
    merged = merge_rows(h, predecessor, top, &length);
    if (merged == NULL)
        return -1;
    Py_INCREF(merged);
    if (store(h, C_VALUES, predecessor, merged) < 0) {
        Py_DECREF(merged);
        return -1;
    }
    end = item(h, C_END, top);
    if (end == NULL)
        goto error;
    Py_INCREF(end);
    if (store(h, C_END, predecessor, end) < 0
        || store(h, C_LENGTH, predecessor, PyFloat_FromDouble(length)) < 0
        || read_link(h, C_NEXT, top, &successor) < 0
        || store_i64(h, C_NEXT, predecessor, successor) < 0)
        goto error;
    if (successor >= 0) {
        if (store_i64(h, C_PREV, successor, predecessor) < 0)
            goto error;
    }
    else
        b->tail = predecessor;
    Py_INCREF(Py_False);
    if (store(h, C_ALIVE, top, Py_False) < 0)
        goto error;
    b->live -= 1;
    if (read_link(h, C_PREV, predecessor, &before) < 0
        || refresh_key(h, before, predecessor, &b->counter) < 0)
        goto error;
    if (successor >= 0 && refresh_key(h, predecessor, successor,
                                      &b->counter) < 0)
        goto error;
    if (h->log[0] != NULL
        && record_merge(h, top, predecessor, merged) < 0)
        goto error;
    Py_DECREF(merged);
    return 0;
error:
    Py_DECREF(merged);
    return -1;
}

/* May the online policy merge `top` now?  OnlineReducer._drain's
 * branches, in the same order: 1 (the gap bookkeeping is updated), 0 to
 * stop the drain, -1 on error. */
static int
online_merge(Heap *h, Book *b, const Policy *policy, Py_ssize_t top,
             double top_key)
{
    long long top_node;
    if (!policy->size_bounded && top_key > policy->step_threshold)
        return 0;
    if (read_i64(h, C_NODE_ID, top, &top_node) < 0)
        return -1;
    if (top_node < b->last_gap) {
        if (policy->size_bounded && b->before_gap < policy->size)
            return 0;
        b->before_gap -= 1;
        return 1;
    }
    if (top_node > b->last_gap) {
        if (policy->delta_is_inf)
            return 0;
        if (policy->delta) {
            int ahead = has_read_ahead(h, top, policy->delta);
            if (ahead <= 0)
                return ahead;
        }
        b->after_gap -= 1;
        return 1;
    }
    return 0;
}

/* Merge while the policy allows: the online policy, or at the end of
 * input greedy._merge_down's, with the gap and read-ahead rules off,
 * which stops at cmin (an infinite key) or at the first merge that would
 * take the accumulated error past the budget.  Returns 0 when the drain
 * stops, -1 on error. */
static int
drain(Heap *h, Book *b, const Policy *policy, int end_of_input, Clock *clock)
{
    Py_ssize_t top;
    double top_key = 0.0;
    int valid;
    for (;;) {
        if (tick(clock) < 0)
            return -1;
        if (policy->size_bounded && b->live <= policy->size)
            return 0;
        top = -1;
        while (PyList_GET_SIZE(h->entries) > 0) {
            PyObject *entry = PyList_GET_ITEM(h->entries, 0);
            Py_INCREF(entry);
            valid = entry_valid(h, entry, &top, &top_key);
            Py_DECREF(entry);
            if (valid < 0)
                return -1;
            if (valid)
                break;
            top = -1;
            if (heap_pop(h->entries) < 0)
                return -1;
        }
        if (top < 0)
            return 0;
        if (end_of_input) {
            if (isinf(top_key) || b->total_error + top_key > policy->budget)
                return 0;
        }
        else if ((valid = online_merge(h, b, policy, top, top_key)) <= 0)
            return valid;
        b->total_error += top_key;
        b->merges += 1;
        if (heap_pop(h->entries) < 0 || merge_top(h, b, top) < 0)
            return -1;
    }
}

/* Make staged row `index` visible at the tail, keyed against the tail. */
static int
activate_row(Heap *h, Book *b, Py_ssize_t index)
{
    Py_ssize_t previous = (Py_ssize_t)b->tail;
    PyObject *key_obj;
    double key;
    int adj;
    if (store_i64(h, C_PREV, index, previous) < 0)
        return -1;
    if (previous >= 0) {
        if (store_i64(h, C_NEXT, previous, index) < 0)
            return -1;
    }
    else
        b->head = index;
    b->tail = index;
    b->live += 1;
    if (b->live > b->max_size)
        b->max_size = b->live;
    adj = previous >= 0 ? rows_adjacent(h, previous, index) : 0;
    if (adj < 0)
        return -1;
    if (adj)
        key_obj = pair_key(h, previous, index, &key);
    else {
        key = Py_HUGE_VAL;
        Py_INCREF(inf_obj);
        key_obj = inf_obj;
    }
    if (key_obj == NULL)
        return -1;
    Py_INCREF(key_obj);
    if (store(h, C_KEY, index, key_obj) < 0)
        goto error;
    if (key != Py_HUGE_VAL) {
        b->counter += 1;
        Py_INCREF(key_obj);
        if (heap_push(h->entries, key_obj, b->counter, index, 1) < 0)
            goto error;
        b->after_gap += 1;
    }
    else {
        PyObject *node = item(h, C_NODE_ID, index);
        if (node == NULL || read_i64(h, C_NODE_ID, index, &b->last_gap) < 0)
            goto error;
        Py_INCREF(node);
        Py_SETREF(b->last_gap_id, node);
        b->before_gap += b->after_gap;
        b->after_gap = 1;
    }
    if (h->log[0] != NULL && record_insert(h, index) < 0)
        goto error;
    Py_DECREF(key_obj);
    return 0;
error:
    Py_DECREF(key_obj);
    return -1;
}

static int
exact_lists(PyObject *tuple, Py_ssize_t count, PyObject **out,
            const char *what)
{
    Py_ssize_t i;
    if (!PyTuple_CheckExact(tuple) || PyTuple_GET_SIZE(tuple) != count) {
        PyErr_Format(PyExc_TypeError, "%s must be a tuple of %zd lists",
                     what, count);
        return -1;
    }
    for (i = 0; i < count; i++) {
        out[i] = PyTuple_GET_ITEM(tuple, i);
        if (!PyList_CheckExact(out[i])) {
            PyErr_Format(PyExc_TypeError, "%s must be a tuple of %zd lists",
                         what, count);
            return -1;
        }
    }
    return 0;
}

PyDoc_STRVAR(activate_doc,
"activate(columns, entries, w2, first, stop, counter, live, max_size,\n"
"         head, tail, size_bounded, size,\n"
"         step_threshold, delta_is_inf, delta, end_of_input, budget,\n"
"         last_gap_id, before_gap, after_gap, total_error, merges, log)\n"
"--\n\n"
"Activate staged rows first..stop-1 of a NumpyMergeHeap, draining the\n"
"merges each one allows; then, if end_of_input, run the end-of-input\n"
"phase (merge down to size, or while the error stays within budget).\n"
"columns is the tuple of the heap's twelve lists (_start .. _length,\n"
"then _group_keys); log is None or the tuple of a DeltaLog's eight\n"
"lists.  Returns (counter, live, max_size, head, tail, last_gap_id,\n"
"before_gap, after_gap, total_error, merges).");

static PyObject *
activate(PyObject *module, PyObject *args)
{
    PyObject *columns, *w2_obj, *log_obj, *last_gap_obj;
    Py_ssize_t first, stop, index, d, rows;
    Heap h;
    Book b;
    Policy policy;
    double *w2 = NULL;
    Clock clock = {0.0, 0.0, 0};
    int end_of_input;
    PyObject *result = NULL;
    int c, overflow;

    memset(&h, 0, sizeof h);
    if (!PyArg_ParseTuple(
            args, "OOOnnLLLLLpLdpLpdOLLdLO:activate", &columns,
            &h.entries, &w2_obj, &first, &stop,
            &b.counter, &b.live, &b.max_size, &b.head, &b.tail,
            &policy.size_bounded, &policy.size, &policy.step_threshold,
            &policy.delta_is_inf, &policy.delta, &end_of_input,
            &policy.budget, &last_gap_obj,
            &b.before_gap, &b.after_gap, &b.total_error, &b.merges,
            &log_obj))
        return NULL;
    if (exact_lists(columns, N_COLUMNS, h.col, "columns") < 0)
        return NULL;
    if (!PyList_CheckExact(h.entries)) {
        PyErr_SetString(PyExc_TypeError, "entries must be a list");
        return NULL;
    }
    if (log_obj != Py_None && exact_lists(log_obj, N_LOG, h.log, "log") < 0)
        return NULL;
    if (!PyLong_CheckExact(last_gap_obj)) {
        PyErr_SetString(PyExc_TypeError, "last_gap_id must be an int");
        return NULL;
    }
    b.last_gap = PyLong_AsLongLongAndOverflow(last_gap_obj, &overflow);
    if (overflow) {
        PyErr_SetString(PyExc_OverflowError, "last_gap_id out of range");
        return NULL;
    }
    if (!PyTuple_CheckExact(w2_obj)) {
        PyErr_SetString(PyExc_TypeError, "w2 must be a tuple of floats");
        return NULL;
    }
    h.p = PyTuple_GET_SIZE(w2_obj);
    /* The weights, then the scratch of two rows. */
    w2 = PyMem_New(double, h.p > 0 ? 3 * h.p : 1);
    if (w2 == NULL)
        return PyErr_NoMemory();
    for (d = 0; d < h.p; d++) {
        PyObject *w = PyTuple_GET_ITEM(w2_obj, d);
        if (!PyFloat_CheckExact(w)) {
            PyErr_SetString(PyExc_TypeError, "w2 must be a tuple of floats");
            goto done;
        }
        w2[d] = PyFloat_AS_DOUBLE(w);
    }
    h.w2 = w2;
    h.scratch = w2 + h.p;
    rows = PyList_GET_SIZE(h.col[C_START]);
    for (c = 0; c < C_GROUP_KEYS; c++) {
        if (PyList_GET_SIZE(h.col[c]) != rows) {
            PyErr_Format(PyExc_ValueError, "heap column %s has %zd rows, "
                         "_start %zd", column_names[c],
                         PyList_GET_SIZE(h.col[c]), rows);
            goto done;
        }
    }
    if (first < 0 || first > stop || stop > rows
        || b.head < -1 || b.head >= rows || b.tail < -1 || b.tail >= rows) {
        PyErr_SetString(PyExc_ValueError,
                        "staged span or list ends outside the heap");
        goto done;
    }

    if (yield_period(&clock.period) < 0)
        goto done;

    /* Staged rows are fresh (version 0, unlinked, unreachable until
     * activated): mark the whole span alive at version 1 up front. */
    for (index = first; index < stop; index++) {
        Py_INCREF(Py_True);
        if (store(&h, C_ALIVE, index, Py_True) < 0
            || store_i64(&h, C_VERSION, index, 1) < 0)
            goto done;
    }
    Py_INCREF(last_gap_obj);
    b.last_gap_id = last_gap_obj;
    clock.released = monotonic();
    for (index = first; index < stop; index++) {
        if (activate_row(&h, &b, index) < 0
            || drain(&h, &b, &policy, 0, &clock) < 0)
            goto book_done;
    }
    if (end_of_input && drain(&h, &b, &policy, 1, &clock) < 0)
        goto book_done;
    result = Py_BuildValue("(LLLLLOLLdL)", b.counter, b.live, b.max_size,
                           b.head, b.tail, b.last_gap_id, b.before_gap,
                           b.after_gap, b.total_error, b.merges);
book_done:
    Py_DECREF(b.last_gap_id);
done:
    PyMem_Free(w2);
    return result;
}

static PyMethodDef methods[] = {
    {"activate", activate, METH_VARARGS, activate_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_activate",
    "The compiled loops: NumpyMergeHeap's activate-then-drain loop, the "
    "sharded engine's merge schedule, the exact DP's row fill and "
    "SSE_max fold.", -1,
    methods,
    NULL, NULL, NULL, NULL,
};

/* trajectory(), the sharded engine's merge schedule: _trajectory.c. */
extern PyMethodDef repro_trajectory_methods[];
/* dp_row(), one row of the exact DP's error matrix: _dp.c. */
extern PyMethodDef repro_dp_methods[];
/* sse_fold(), the SSE_max of every error budget: _sse.c. */
extern PyMethodDef repro_sse_methods[];

PyMODINIT_FUNC
PyInit__activate(void)
{
    PyObject *module;
    if (inf_obj == NULL && (inf_obj = PyFloat_FromDouble(Py_HUGE_VAL)) == NULL)
        return NULL;
    module = PyModule_Create(&module_def);
    if (module != NULL
        && (PyModule_AddFunctions(module, repro_trajectory_methods) < 0
            || PyModule_AddFunctions(module, repro_dp_methods) < 0
            || PyModule_AddFunctions(module, repro_sse_methods) < 0))
        Py_CLEAR(module);
    return module;
}
