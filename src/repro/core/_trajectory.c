/*
 * The sharded engine's greedy merge schedule in C.
 *
 * trajectory() is the loop of repro.core.kernels.greedy_merge_trajectory
 * (the paper's greedy merging strategy run down to a shard's cmin; its
 * Python reference is tests/oracles.py's trajectory) over a shard's
 * columns, read by _merge.h's loader in the layout _sse.c reads.  It
 * computes the blocks' lengths, their adjacency and initial keys, and the
 * initial frontier: the positions of the finite keys in (key, position)
 * order, the prefix of a stable argsort, so NaN and inf keys stay out.
 * The refresh queue is a (key, counter, node) struct array.  Lazily
 * deferred refreshes, heapq's sift algorithm and _merge.h's merge_key /
 * merged_row are the Python reference's, so both return the same four
 * columns, bit for bit.  Build with -ffp-contract=off: a fused
 * multiply-add changes the bits of a key.
 *
 * No Python object is made per node, entry or step, so the interpreter
 * lock is released for the whole schedule.  Working memory is sized once:
 * a shard of n blocks takes at most n - 1 steps, and each step queues at
 * most two refreshed entries.
 */
#include "_merge.h"
#include <math.h>

typedef struct {
    double key;
    long long counter;
    Py_ssize_t node;
} Entry;

/* An initial key of the frontier and the position of its pair. */
typedef struct {
    double key;
    Py_ssize_t position;
} Pair;

typedef enum { DONE, ZERO_LENGTH, CORRUPT } Outcome;

typedef struct {
    /* inputs */
    Py_ssize_t n, p, frontier_size;
    const Columns *c;
    /* the end-of-input stop rule, when stop is set; tie is the first tied
     * step (-1: none) and total the running error */
    int stop;
    Py_ssize_t limit, tie;
    double budget, total;
    /* outputs, n - 1 each (rows: (n - 1) * p) */
    long long *boundaries, *heads;
    double *keys, *rows;
    /* working memory */
    double *length;            /* n */
    double *row;               /* n * p */
    Pair *frontier;            /* 2 * (n - 1): the pairs, then scratch */
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

/* The merge key of blocks (left, right). */
static int
block_key(const Schedule *s, Py_ssize_t left, Py_ssize_t right, double *key)
{
    return merge_key(s->length[left], s->length[right], s->row + left * s->p,
                     s->row + right * s->p, s->c->w2, s->p, key);
}

/* Fold block index into its predecessor and record the step.  The
 * merged block's length is the span_length of its interval, as the
 * python heap takes it, not the sum of the two float lengths, which
 * rounds differently past 2^53 chronons. */
static int
merge(Schedule *s, Py_ssize_t predecessor, Py_ssize_t index, double key)
{
    double *a = s->row + predecessor * s->p;
    Py_ssize_t successor;
    if (merged_row(s->length[predecessor], s->length[index], a,
                   s->row + index * s->p, s->p, a) < 0)
        return -1;
    memcpy(s->rows + s->steps * s->p, a, (size_t)s->p * sizeof(double));
    successor = s->next[index];
    s->length[predecessor] = span_length(
        s->c->starts[predecessor],
        s->c->ends[(successor >= 0 ? successor : s->n) - 1]);
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

/* Sorts the count pairs by key, equal keys in position order (the order
 * they come in), through a scratch of as many pairs: a bottom-up merge
 * sort, stable as np.argsort(kind="stable").  No frontier key is NaN. */
static void
sort_frontier(Pair *pairs, Pair *scratch, Py_ssize_t count)
{
    Pair *from = pairs, *to = scratch, *swap;
    Py_ssize_t width, lo, mid, hi, i, j, k;
    for (width = 1; width < count; width *= 2) {
        for (lo = 0; lo < count; lo += 2 * width) {
            mid = lo + width < count ? lo + width : count;
            hi = lo + 2 * width < count ? lo + 2 * width : count;
            for (i = lo, j = mid, k = lo; i < mid && j < hi; k++) {
                const int right = from[j].key < from[i].key; /* no branch */
                to[k] = from[right ? j : i];
                j += right;
                i += !right;
            }
            while (i < mid)
                to[k++] = from[i++];
            while (j < hi)
                to[k++] = from[j++];
        }
        swap = from, from = to, to = swap;
    }
    if (from != pairs)
        memcpy(pairs, from, (size_t)count * sizeof(Pair));
}

/* Node i is the block starting at original position i.  stamp[i] is the
 * counter of its current entry (1: its initial entry, -1: merged away,
 * 0: never merges); queued / queued_key are the counter and key of its
 * entry still in the queue, at first its initial key against block
 * i - 1 (inf when the two are not adjacent). */
static Outcome
prologue(Schedule *s)
{
    const Columns *c = s->c;
    Py_ssize_t i;
    memcpy(s->row, c->values, (size_t)(s->n * s->p) * sizeof(double));
    s->frontier_size = 0;
    for (i = 0; i < s->n; i++) {
        s->length[i] = span_length(c->starts[i], c->ends[i]);
        s->prev[i] = i - 1;
        s->next[i] = i + 1 < s->n ? i + 1 : -1;
        s->stamp[i] = s->queued[i] = i > 0 && continues(c, i);
        s->key[i] = HUGE_VAL;
        s->queued_key[i] = HUGE_VAL;
        if (!s->stamp[i])
            continue;
        if (block_key(s, i - 1, i, &s->queued_key[i]) < 0)
            return ZERO_LENGTH;
        if (s->queued_key[i] < HUGE_VAL)
            s->frontier[s->frontier_size++] =
                (Pair){s->queued_key[i], i - 1};
        else if (s->stop && isnan(s->queued_key[i]))
            s->tie = 0;
    }
    sort_frontier(s->frontier, s->frontier + (s->n - 1), s->frontier_size);
    return DONE;
}

static Outcome
run(Schedule *s)
{
    Py_ssize_t position = 0, index, t;
    long long counter = 1, current, top_stamp;
    double top_key;
    Outcome outcome = prologue(s);

    if (outcome != DONE || s->tie >= 0)
        return outcome;
    for (;;) {
        if (s->stop && s->steps == s->limit)
            return DONE;
        if (position < s->frontier_size) {
            top_key = s->frontier[position].key;
            if (s->heap_len > 0 && s->heap[0].key < top_key) {
                Entry top = pop(s);
                top_key = top.key, top_stamp = top.counter, index = top.node;
            }
            else {
                index = s->frontier[position].position + 1;
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
        if (s->stop) {
            /* The heaps' end-of-input rule: stop at cmin (an infinite
             * key) and before the budget is exceeded.  A key equal to the
             * smallest one left, valid or stale, is a tie the heaps break
             * by their own counters. */
            if (!(top_key < HUGE_VAL) || s->total + top_key > s->budget)
                return DONE;
            if ((position < s->frontier_size
                 && s->frontier[position].key == top_key)
                || (s->heap_len > 0 && s->heap[0].key == top_key)) {
                s->tie = s->steps;
                return DONE;
            }
            s->total += top_key;
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
            if (block_key(s, s->prev[node], node, &refreshed) < 0)
                return ZERO_LENGTH;
            if (s->stop && isnan(refreshed)) {
                s->tie = s->steps - 1; /* unordered: no heap would agree */
                return DONE;
            }
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

PyDoc_STRVAR(trajectory_doc,
"trajectory(starts, ends, groups, values, w2, boundaries, keys, heads,\n"
"           out_rows[, limit, budget, total_error])\n"
"--\n\n"
"Run the greedy merge schedule of a shard of n >= 2 blocks.  starts,\n"
"ends and groups are n int64 items (dense group ids), values the n * p\n"
"float64 values row by row and w2 the p float64 squared weights.  Writes\n"
"the schedule into boundaries, keys, heads (n - 1 int64 / float64 /\n"
"int64 items) and out_rows ((n - 1) * p float64) and returns its number\n"
"of steps.\n\n"
"With the end-of-input stop rule (0 <= limit <= n - 1 steps, a float\n"
"budget, the running total_error it starts from), the schedule stops\n"
"after limit steps, before a step that would take the running error\n"
"above budget (never, for a NaN budget), at an infinite key and at its\n"
"first tie: a step whose key equals the smallest key left in the queue,\n"
"valid or stale, or that computes a NaN key.  Returns (steps, tie,\n"
"total_error), tie the tied step or -1.");

static PyObject *
repro_trajectory(PyObject *module, PyObject *args)
{
    enum { BOUNDARIES = N_INPUTS, KEYS, HEADS, OUT_ROWS, N_BUFFERS };
    PyObject *obj[N_BUFFERS];
    Py_buffer buf[N_BUFFERS];
    Columns c;
    Schedule s;
    Outcome outcome;
    PyObject *result = NULL;
    Py_ssize_t n, p;

    memset(buf, 0, sizeof buf);
    memset(&s, 0, sizeof s);
    s.limit = -1;
    s.tie = -1;
    if (!PyArg_ParseTuple(args, "OOOOOOOOO|ndd:trajectory", &obj[IN_STARTS],
                          &obj[IN_ENDS], &obj[IN_GROUPS], &obj[IN_VALUES],
                          &obj[IN_W2], &obj[BOUNDARIES], &obj[KEYS],
                          &obj[HEADS], &obj[OUT_ROWS], &s.limit, &s.budget,
                          &s.total))
        return NULL;
    s.stop = PyTuple_GET_SIZE(args) > OUT_ROWS + 1;
    if (s.stop && PyTuple_GET_SIZE(args) != OUT_ROWS + 4) {
        PyErr_SetString(PyExc_TypeError,
                        "the stop rule takes limit, budget and total_error");
        return NULL;
    }
    if (load_columns(obj, buf, &c) < 0)
        goto done;
    n = c.n;
    p = c.p;
    if (n < 2) {
        PyErr_SetString(PyExc_ValueError, "a schedule needs two blocks");
        goto done;
    }
    if (s.stop && (s.limit < 0 || s.limit > n - 1)) {
        PyErr_Format(PyExc_ValueError,
                     "limit must be within [0, %zd], got %zd", n - 1,
                     s.limit);
        goto done;
    }
    if (typed(obj[BOUNDARIES], &buf[BOUNDARIES], PyBUF_WRITABLE, 'q', n - 1,
              "boundaries") < 0
        || typed(obj[KEYS], &buf[KEYS], PyBUF_WRITABLE, 'd', n - 1,
                 "keys") < 0
        || typed(obj[HEADS], &buf[HEADS], PyBUF_WRITABLE, 'q', n - 1,
                 "heads") < 0
        || typed(obj[OUT_ROWS], &buf[OUT_ROWS], PyBUF_WRITABLE, 'd',
                 (n - 1) * p, "out_rows") < 0)
        goto done;
    s.n = n;
    s.p = p;
    s.c = &c;
    s.length = PyMem_New(double, n);
    s.row = PyMem_New(double, n * p > 0 ? n * p : 1);
    s.frontier = PyMem_New(Pair, 2 * (n - 1));
    s.prev = PyMem_New(Py_ssize_t, n);
    s.next = PyMem_New(Py_ssize_t, n);
    s.stamp = PyMem_New(long long, n);
    s.queued = PyMem_New(long long, n);
    s.key = PyMem_New(double, n);
    s.queued_key = PyMem_New(double, n);
    s.heap_cap = 2 * (n - 1);
    s.heap = PyMem_New(Entry, s.heap_cap);
    if (s.length == NULL || s.row == NULL || s.frontier == NULL
        || s.prev == NULL || s.next == NULL || s.stamp == NULL
        || s.queued == NULL || s.key == NULL || s.queued_key == NULL
        || s.heap == NULL) {
        PyErr_NoMemory();
        goto done;
    }
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
    else if (s.stop)
        result = Py_BuildValue("(nnd)", s.steps, s.tie, s.total);
    else
        result = PyLong_FromSsize_t(s.steps);
done:
    PyMem_Free(s.length);
    PyMem_Free(s.row);
    PyMem_Free(s.frontier);
    PyMem_Free(s.prev);
    PyMem_Free(s.next);
    PyMem_Free(s.stamp);
    PyMem_Free(s.queued);
    PyMem_Free(s.key);
    PyMem_Free(s.queued_key);
    PyMem_Free(s.heap);
    release_buffers(buf, N_BUFFERS);
    return result;
}

/* Added to the _activate module by its PyInit. */
PyMethodDef repro_trajectory_methods[] = {
    {"trajectory", repro_trajectory, METH_VARARGS, trajectory_doc},
    {NULL, NULL, 0, NULL},
};
