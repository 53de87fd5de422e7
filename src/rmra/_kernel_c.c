/* Compiled candidate scanner: the C twin of rmra._kernel_py.scan.
 *
 * Same contract: scan(n, l, first, count, filtered=False, mirror_prune=False)
 * walks up to `count` candidates of stage (n, l) in lexicographic order from
 * the interior combination `first` and returns (examined, found_offset,
 * positions), with found_offset -1 and positions None when the range holds no
 * valid array. Mirror-pruned candidates count as examined. 4 <= n <= 36 and
 * n <= l <= 255.
 *
 * Bit-parallel and incremental (the bitmap method of Golomb-ruler search):
 * the interior sensors form an odometer, and each depth keeps the lags of its
 * sensor prefix as once/twice/thrice bitmasks (lags of weight >= 1, 2, 3).
 * Adding a sensor x costs a few word operations: its lags to the sensors
 * above it are S >> x, and its lags to those below are R >> (W-1-x), where R
 * holds the same sensors bit-reversed in a W-bit set. A leaf survives only if
 * every lag 1..l-1 has weight >= 2; only survivors get the chain test
 * S & S>>g & S>>2g on each lag g of weight exactly 2 and the mirror check.
 *
 * Bitsets are one 64-bit word for l <= 63 and four words for l <= 255. One
 * inline scan loop takes the width as a parameter; scan1 and scan4 pin it to
 * a constant so the compiler specialises each.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

#define MAX_N 36
#define MAX_L 255
#define MAX_W 4 /* words in the widest bitset: 4 * 64 > MAX_L */

typedef uint64_t word;

/* The sensors placed so far and the weights of their lags. */
typedef struct {
    word s[MAX_W];      /* bit x: a sensor at x */
    word r[MAX_W];      /* bit W-1-x: the same sensors, reversed */
    word once[MAX_W];   /* lags of weight >= 1 */
    word twice[MAX_W];  /* lags of weight >= 2 */
    word thrice[MAX_W]; /* lags of weight >= 3 */
} state;

#define INLINE static inline __attribute__((always_inline))

/* out = in >> sh over an nw-word bitset; bits shifted past the top are 0. */
INLINE void shr(word *out, const word *in, int sh, int nw)
{
    int q = sh >> 6, b = sh & 63;
    for (int i = 0; i < nw; i++) {
        word lo = i + q < nw ? in[i + q] : 0;
        word hi = i + q + 1 < nw ? in[i + q + 1] : 0;
        out[i] = b ? (lo >> b) | (hi << (64 - b)) : lo;
    }
}

/* dst = src plus a sensor at x (x not yet placed; dst may alias src). */
INLINE void add(state *dst, const state *src, int x, int nw)
{
    word below[MAX_W], above[MAX_W];
    int y = 64 * nw - 1 - x;
    shr(below, src->r, y, nw); /* lags x - s for sensors s < x */
    shr(above, src->s, x, nw); /* lags s - x for sensors s > x */
    for (int i = 0; i < nw; i++) {
        /* one lag can be in both masks: it then gains two pairs */
        word o = src->once[i], t = src->twice[i], h = src->thrice[i];
        h |= t & below[i];
        t |= o & below[i];
        o |= below[i];
        h |= t & above[i];
        t |= o & above[i];
        o |= above[i];
        dst->once[i] = o;
        dst->twice[i] = t;
        dst->thrice[i] = h;
        dst->s[i] = src->s[i];
        dst->r[i] = src->r[i];
    }
    dst->s[x >> 6] |= (word)1 << (x & 63);
    dst->r[y >> 6] |= (word)1 << (y & 63);
}

/* Every lag 1..l-1 has weight >= 2: the cheap test most leaves fail. */
INLINE int covered(const state *st, const word *full, int nw)
{
    for (int i = 0; i < nw; i++)
        if ((st->twice[i] & full[i]) != full[i])
            return 0;
    return 1;
}

/* The rest of validity for a covered leaf: no lag of weight exactly 2 has
 * its two pairs chained through one sensor (a, a+g, a+2g), which a single
 * failure would break. The aperture lag l needs no test: only the pair
 * (0, l) spans it, so its weight is 1 in every candidate. */
INLINE int robust(const state *st, const word *full, int nw)
{
    word weak[MAX_W], a[MAX_W], b[MAX_W];
    for (int i = 0; i < nw; i++)
        weak[i] = st->twice[i] & ~st->thrice[i] & full[i];
    for (int i = 0; i < nw; i++) {
        while (weak[i]) {
            int g = 64 * i + __builtin_ctzll(weak[i]);
            weak[i] &= weak[i] - 1;
            shr(a, st->s, g, nw);
            shr(b, st->s, 2 * g, nw);
            for (int j = 0; j < nw; j++)
                if (st->s[j] & a[j] & b[j])
                    return 0;
        }
    }
    return 1;
}

/* 1 unless the mirror of p comes first lexicographically. */
static int mirror_first(const int *p, int n, int l)
{
    for (int i = 1; i < n; i++) {
        int q = l - p[n - 1 - i];
        if (q != p[i])
            return q > p[i];
    }
    return 1;
}

/* Scan from interior combination c (0-based, k values). Returns the offset
 * of the first valid candidate (its positions in out), or -(examined + 1). */
INLINE long long scan_words(int n, int l, int filtered, int mirror,
                            const int *c, long long count, int *out, int nw)
{
    state st[MAX_N - 1]; /* st[d]: fixed sensors plus interior 0..d-1 */
    word full[MAX_W] = {0};
    int p[MAX_N];
    int off = filtered ? 2 : 1, k = n - 2 * off; /* fixed sensors at each end */
    int *x = p + off;            /* the interior sensors, in place */
    int top = l - off - (k - 1); /* highest position of interior sensor 0 */
    long long t = 0;

    for (int g = 1; g < l; g++)
        full[g >> 6] |= (word)1 << (g & 63);
    memset(&st[0], 0, sizeof st[0]);
    p[0] = 0;
    p[n - 1] = l;
    if (filtered) {
        p[1] = 1;
        p[n - 2] = l - 1;
    }
    for (int i = 0; i < off; i++) {
        add(&st[0], &st[0], p[i], nw);
        add(&st[0], &st[0], p[n - 1 - i], nw);
    }
    for (int i = 0; i < k; i++) {
        x[i] = off + c[i]; /* combination values count from the first free point */
        add(&st[i + 1], &st[i], x[i], nw);
    }
    for (;;) {
        const state *leaf = &st[k];
        if (covered(leaf, full, nw) && (!mirror || mirror_first(p, n, l))
            && robust(leaf, full, nw)) {
            memcpy(out, p, n * sizeof *p);
            return t;
        }
        if (++t >= count)
            return -t - 1;
        int i = k - 1;
        while (i >= 0 && x[i] == top + i)
            i--;
        if (i < 0) /* enumeration exhausted before count ran out */
            return -t - 1;
        x[i]++;
        add(&st[i + 1], &st[i], x[i], nw);
        for (i++; i < k; i++) {
            x[i] = x[i - 1] + 1;
            add(&st[i + 1], &st[i], x[i], nw);
        }
    }
}

static long long scan1(int n, int l, int filtered, int mirror, const int *c,
                       long long count, int *out)
{
    return scan_words(n, l, filtered, mirror, c, count, out, 1);
}

static long long scan4(int n, int l, int filtered, int mirror, const int *c,
                       long long count, int *out)
{
    return scan_words(n, l, filtered, mirror, c, count, out, MAX_W);
}

static PyObject *scan(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "l", "first", "count", "filtered", "mirror_prune", NULL};
    int n, l, filtered = 0, mirror = 0, overflow, c[MAX_N], out[MAX_N];
    PyObject *first, *count_obj, *seq;
    long long count, res;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOO|pp:scan", kwlist, &n, &l,
                                     &first, &count_obj, &filtered, &mirror))
        return NULL;
    if (n < 4 || n > MAX_N)
        return PyErr_Format(PyExc_ValueError,
                            "sensor count %d outside supported range 4..%d", n, MAX_N);
    if (l < n || l > MAX_L)
        return PyErr_Format(PyExc_ValueError,
                            "aperture %d outside supported range %d..%d", l, n, MAX_L);
    int k = filtered ? n - 4 : n - 2, m = filtered ? l - 3 : l - 1;
    seq = PySequence_Fast(first, "first must be a sequence");
    if (seq == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(seq) != k) {
        Py_DECREF(seq);
        return PyErr_Format(PyExc_ValueError,
                            "expected a %d-element interior combination", k);
    }
    long prev = -1;
    for (int i = 0; i < k; i++) {
        long v = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(seq, i), &overflow);
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return NULL;
        }
        if (overflow || !(prev < v && v < m)) {
            Py_DECREF(seq);
            PyErr_SetString(PyExc_ValueError,
                            "interior combination not strictly increasing in range");
            return NULL;
        }
        c[i] = (int)v;
        prev = v;
    }
    Py_DECREF(seq);
    count = PyLong_AsLongLongAndOverflow(count_obj, &overflow);
    if (count == -1 && PyErr_Occurred())
        return NULL;
    if (overflow) /* a count past 2**63 - 1 reaches the stage end first */
        count = overflow > 0 ? LLONG_MAX : 0;
    if (count <= 0)
        return Py_BuildValue("iiO", 0, -1, Py_None);

    Py_BEGIN_ALLOW_THREADS
    res = (l <= 63 ? scan1 : scan4)(n, l, filtered, mirror, c, count, out);
    Py_END_ALLOW_THREADS

    if (res < 0)
        return Py_BuildValue("LiO", -(res + 1), -1, Py_None);
    PyObject *positions = PyList_New(n);
    if (positions == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLong(out[i]);
        if (v == NULL) {
            Py_DECREF(positions);
            return NULL;
        }
        PyList_SET_ITEM(positions, i, v);
    }
    return Py_BuildValue("LLN", res + 1, res, positions);
}

static PyMethodDef methods[] = {
    {"scan", (PyCFunction)(void (*)(void))scan, METH_VARARGS | METH_KEYWORDS,
     "scan(n, l, first, count, filtered=False, mirror_prune=False)\n--\n\n"
     "Scan up to count consecutive candidates in lexicographic order.\n\n"
     "Same semantics as rmra._kernel_py.scan: returns (examined, found_offset,\n"
     "positions) with found_offset -1 when nothing valid lies in the range."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "rmra._kernel_c",
    .m_doc = "Compiled candidate scanner (incremental lag bitmasks, GIL released).",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernel_c(void)
{
    return PyModule_Create(&module);
}
