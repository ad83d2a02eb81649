/*
 * The sharded engine's greedy merge schedule in C.
 *
 * trajectory() is the loop of repro.core.kernels.greedy_merge_trajectory
 * (the paper's greedy merging strategy run down to a shard's cmin; its
 * Python reference is tests/oracles.py's trajectory) over typed
 * buffers only: float64 lengths, rows, weights and keys, int64 links,
 * stamps and counters, and a (key, counter, node) struct array as the
 * refresh queue.  The initial frontier (adjacency, pairwise keys and
 * their stable order) comes from the numpy prologue both share.  Lazily
 * deferred refreshes, heapq's sift algorithm and the merge_key /
 * merged_row operation order are the Python reference's, so both return
 * the same four columns, bit for bit.  Build with
 * -ffp-contract=off: a fused multiply-add changes the bits of a key.
 *
 * No Python object is made per node, entry or step, so the interpreter
 * lock is released for the whole schedule.  Working memory is sized once:
 * a shard of n blocks takes at most n - 1 steps, and each step queues at
 * most two refreshed entries.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

typedef struct {
    double key;
    long long counter;
    Py_ssize_t node;
} Entry;

typedef enum { DONE, ZERO_LENGTH, CORRUPT } Outcome;

typedef struct {
    /* inputs */
    Py_ssize_t n, p, frontier_size;
    double *length;            /* n, folded in place */
    double *row;               /* n * p, folded in place */
    const double *w2;          /* p */
    const unsigned char *adjacent; /* n - 1 */
    const double *initial;     /* n - 1 */
    const long long *frontier; /* frontier_size pair positions */
    /* outputs, n - 1 each (rows: (n - 1) * p) */
    long long *boundaries, *heads;
    double *keys, *rows;
    /* working memory */
    Py_ssize_t *prev, *next;
    long long *stamp, *queued;
    double *key, *queued_key;
    Entry *heap;
    Py_ssize_t heap_len, heap_cap, steps;
} Schedule;

/* (key, counter, node) tuple order: counters are distinct, and a NaN key
 * is unordered, where a tuple's < is False. */
static inline int
entry_lt(const Entry *a, const Entry *b)
{
    if (a->key < b->key)
        return 1;
    return a->key == b->key && a->counter < b->counter;
}

/* heapq._siftdown: move the entry at pos up towards startpos. */
static void
sift_down(Entry *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    Entry item = heap[pos];
    while (pos > startpos) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!entry_lt(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

/* heapq._siftup: bubble the smaller child up to a leaf, then sift down. */
static void
sift_up(Entry *heap, Py_ssize_t end, Py_ssize_t pos)
{
    Py_ssize_t start = pos, child;
    Entry item = heap[pos];
    for (child = 2 * pos + 1; child < end; child = 2 * pos + 1) {
        if (child + 1 < end && !entry_lt(&heap[child], &heap[child + 1]))
            child++;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
    sift_down(heap, start, pos);
}

static int
push(Schedule *s, double key, long long counter, Py_ssize_t node)
{
    if (s->heap_len == s->heap_cap)
        return -1;
    s->heap[s->heap_len] = (Entry){key, counter, node};
    sift_down(s->heap, 0, s->heap_len++);
    return 0;
}

static Entry
pop(Schedule *s)
{
    Entry last = s->heap[--s->heap_len], top;
    if (s->heap_len == 0)
        return last;
    top = s->heap[0];
    s->heap[0] = last;
    sift_up(s->heap, s->heap_len, 0);
    return top;
}

/* repro.core.errors.merge_key of blocks (left, right). */
static int
merge_key(const Schedule *s, Py_ssize_t left, Py_ssize_t right, double *key)
{
    double l = s->length[left], r = s->length[right], total = l + r;
    double factor, diff, sum = 0.0;
    const double *a = s->row + left * s->p, *b = s->row + right * s->p;
    Py_ssize_t d;
    if (total == 0.0)
        return -1;
    factor = l * r / total;
    for (d = 0; d < s->p; d++) {
        diff = a[d] - b[d];
        sum += (s->w2[d] * factor) * (diff * diff);
    }
    *key = sum;
    return 0;
}

/* Fold block index into its predecessor with repro.core.merge.merged_row
 * and record the step. */
static int
merge(Schedule *s, Py_ssize_t predecessor, Py_ssize_t index, double key)
{
    double l = s->length[predecessor], r = s->length[index], total = l + r;
    double *a = s->row + predecessor * s->p;
    const double *b = s->row + index * s->p;
    double *out = s->rows + s->steps * s->p;
    Py_ssize_t d, successor;
    if (s->p > 0 && total == 0.0)
        return -1;
    for (d = 0; d < s->p; d++)
        out[d] = a[d] = (l * a[d] + r * b[d]) / total;
    s->length[predecessor] = total;
    successor = s->next[index];
    s->next[predecessor] = successor;
    if (successor >= 0)
        s->prev[successor] = predecessor;
    s->stamp[index] = -1;
    s->boundaries[s->steps] = index;
    s->keys[s->steps] = key;
    s->heads[s->steps] = predecessor;
    s->steps++;
    return 0;
}

static Outcome
run(Schedule *s)
{
    Py_ssize_t position = 0, index, i, t;
    long long counter = 1, current, top_stamp;
    double top_key;

    /* Node i is the block starting at original position i.  stamp[i] is
     * the counter of its current entry (1: its initial entry, -1: merged
     * away, 0: never merges); queued / queued_key are the counter and key
     * of its entry still in the queue. */
    for (i = 0; i < s->n; i++) {
        s->prev[i] = i - 1;
        s->next[i] = i + 1 < s->n ? i + 1 : -1;
        s->stamp[i] = s->queued[i] = i > 0 && s->adjacent[i - 1];
        s->key[i] = HUGE_VAL;
        s->queued_key[i] = i > 0 ? s->initial[i - 1] : HUGE_VAL;
    }
    for (;;) {
        if (position < s->frontier_size) {
            top_key = s->initial[s->frontier[position]];
            if (s->heap_len > 0 && s->heap[0].key < top_key) {
                Entry top = pop(s);
                top_key = top.key, top_stamp = top.counter, index = top.node;
            }
            else {
                index = (Py_ssize_t)s->frontier[position] + 1;
                top_stamp = 1; /* every initial entry's counter */
                position++;
            }
        }
        else if (s->heap_len > 0) {
            Entry top = pop(s);
            top_key = top.key, top_stamp = top.counter, index = top.node;
        }
        else
            return DONE;
        current = s->stamp[index];
        if (current != top_stamp) {
            /* Stale.  If it was the node's queued entry, the node's
             * current entry was deferred behind it and goes in now. */
            if (current > 0 && s->queued[index] == top_stamp) {
                if (push(s, s->key[index], current, index) < 0)
                    return CORRUPT;
                s->queued[index] = current;
                s->queued_key[index] = s->key[index];
            }
            continue;
        }
        Py_ssize_t predecessor = s->prev[index];
        if (predecessor < 0)
            return CORRUPT;
        if (merge(s, predecessor, index, top_key) < 0)
            return ZERO_LENGTH;

        /* Refresh the predecessor's key, then the successor's. */
        for (t = 0; t < 2; t++) {
            Py_ssize_t node = t == 0 ? predecessor : s->next[predecessor];
            double refreshed;
            if (node < 0 || !s->stamp[node])
                continue;
            if (merge_key(s, s->prev[node], node, &refreshed) < 0)
                return ZERO_LENGTH;
            s->stamp[node] = ++counter;
            s->key[node] = refreshed;
            if (refreshed >= s->queued_key[node])
                continue; /* deferred: the queued entry's stale pop pushes it */
            if (push(s, refreshed, counter, node) < 0)
                return CORRUPT;
            s->queued[node] = counter;
            s->queued_key[node] = refreshed;
        }
    }
}

/* Checks that buffer b holds exactly count items of size bytes. */
static int
sized(const Py_buffer *b, Py_ssize_t count, size_t size, const char *name)
{
    if (b->len != (Py_ssize_t)(count * size)) {
        PyErr_Format(PyExc_ValueError, "%s holds %zd bytes, expected %zd",
                     name, b->len, (Py_ssize_t)(count * size));
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(trajectory_doc,
"trajectory(length, rows, w2, adjacent, initial, frontier,\n"
"           boundaries, keys, heads, out_rows)\n"
"--\n\n"
"Run the greedy merge schedule of a shard of n blocks.  length (float64,\n"
"n) and rows (float64, n * p) are folded in place; w2 holds p float64\n"
"squared weights, adjacent n - 1 bools, initial the n - 1 float64 pair\n"
"keys and frontier the int64 positions of the finite ones in stable key\n"
"order.  Writes the schedule into boundaries, keys, heads (n - 1 each)\n"
"and out_rows ((n - 1) * p) and returns its number of steps.");

static PyObject *
repro_trajectory(PyObject *module, PyObject *args)
{
    enum { LENGTH, ROWS, W2, ADJACENT, INITIAL, FRONTIER,
           BOUNDARIES, KEYS, HEADS, OUT_ROWS, N_BUFFERS };
    Py_buffer buf[N_BUFFERS];
    Schedule s;
    Outcome outcome;
    double *w2 = NULL;
    PyObject *result = NULL;
    Py_ssize_t i, n, p;

    memset(buf, 0, sizeof buf);
    memset(&s, 0, sizeof s);
    if (!PyArg_ParseTuple(
            args, "w*w*y*y*y*y*w*w*w*w*:trajectory", &buf[LENGTH],
            &buf[ROWS], &buf[W2], &buf[ADJACENT], &buf[INITIAL],
            &buf[FRONTIER], &buf[BOUNDARIES], &buf[KEYS], &buf[HEADS],
            &buf[OUT_ROWS]))
        return NULL;
    n = buf[LENGTH].len / (Py_ssize_t)sizeof(double);
    p = n > 0 ? buf[ROWS].len / (Py_ssize_t)sizeof(double) / n : 0;
    if (n < 2) {
        PyErr_SetString(PyExc_ValueError, "a schedule needs two blocks");
        goto done;
    }
    if (sized(&buf[LENGTH], n, sizeof(double), "length") < 0
        || sized(&buf[ROWS], n * p, sizeof(double), "rows") < 0
        || sized(&buf[ADJACENT], n - 1, 1, "adjacent") < 0
        || sized(&buf[INITIAL], n - 1, sizeof(double), "initial") < 0
        || sized(&buf[BOUNDARIES], n - 1, sizeof(long long), "boundaries") < 0
        || sized(&buf[KEYS], n - 1, sizeof(double), "keys") < 0
        || sized(&buf[HEADS], n - 1, sizeof(long long), "heads") < 0
        || sized(&buf[OUT_ROWS], (n - 1) * p, sizeof(double), "out_rows") < 0)
        goto done;
    if (buf[W2].len < (Py_ssize_t)(p * sizeof(double))
        || buf[FRONTIER].len % sizeof(long long) != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "w2 or frontier has the wrong number of bytes");
        goto done;
    }
    s.n = n;
    s.p = p;
    s.frontier_size = buf[FRONTIER].len / (Py_ssize_t)sizeof(long long);
    s.frontier = buf[FRONTIER].buf;
    for (i = 0; i < s.frontier_size; i++) {
        if (s.frontier[i] < 0 || s.frontier[i] >= n - 1) {
            PyErr_SetString(PyExc_ValueError, "frontier position out of range");
            goto done;
        }
    }
    /* The weights are copied: the caller's array is not held. */
    w2 = PyMem_New(double, p > 0 ? p : 1);
    s.prev = PyMem_New(Py_ssize_t, n);
    s.next = PyMem_New(Py_ssize_t, n);
    s.stamp = PyMem_New(long long, n);
    s.queued = PyMem_New(long long, n);
    s.key = PyMem_New(double, n);
    s.queued_key = PyMem_New(double, n);
    s.heap_cap = 2 * (n - 1);
    s.heap = PyMem_New(Entry, s.heap_cap);
    if (w2 == NULL || s.prev == NULL || s.next == NULL || s.stamp == NULL
        || s.queued == NULL || s.key == NULL || s.queued_key == NULL
        || s.heap == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memcpy(w2, buf[W2].buf, p * sizeof(double));
    s.w2 = w2;
    s.length = buf[LENGTH].buf;
    s.row = buf[ROWS].buf;
    s.adjacent = buf[ADJACENT].buf;
    s.initial = buf[INITIAL].buf;
    s.boundaries = buf[BOUNDARIES].buf;
    s.keys = buf[KEYS].buf;
    s.heads = buf[HEADS].buf;
    s.rows = buf[OUT_ROWS].buf;

    Py_BEGIN_ALLOW_THREADS
    outcome = run(&s);
    Py_END_ALLOW_THREADS

    if (outcome == ZERO_LENGTH)
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
    else if (outcome == CORRUPT)
        PyErr_SetString(PyExc_RuntimeError,
                        "merge schedule outgrew its working memory");
    else
        result = PyLong_FromSsize_t(s.steps);
done:
    PyMem_Free(w2);
    PyMem_Free(s.prev);
    PyMem_Free(s.next);
    PyMem_Free(s.stamp);
    PyMem_Free(s.queued);
    PyMem_Free(s.key);
    PyMem_Free(s.queued_key);
    PyMem_Free(s.heap);
    for (i = 0; i < N_BUFFERS; i++) {
        if (buf[i].obj != NULL)
            PyBuffer_Release(&buf[i]);
    }
    return result;
}

/* Added to the _activate module by its PyInit. */
PyMethodDef repro_trajectory_methods[] = {
    {"trajectory", repro_trajectory, METH_VARARGS, trajectory_doc},
    {NULL, NULL, 0, NULL},
};
