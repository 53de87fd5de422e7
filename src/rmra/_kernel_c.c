/* Compiled stage engine behind rmra.kernel.scan.
 *
 * scan(n, l, start, count, filtered=False) keeps the contract of
 * rmra._kernel_py.scan: the window is the count candidates of stage (n, l)
 * from lexicographic rank start onwards (cut at the stage end), and it
 * returns (examined, offset, positions) for the first valid array in the
 * window that is mirror-canonical, or (examined, -1, None). An array whose
 * mirror comes first is skipped: validity is mirror-invariant and the mirror
 * lies in the same stage, so a stage's first valid array is always
 * mirror-canonical and skipping never changes it. The engine unranks the
 * window's ends into sets, searches between them without visiting the
 * candidates before the find, and ranks the find, so examined is the find's
 * offset plus one, or the window size. 4 <= n <= 36 and n <= l <= 255.
 *
 * Ends-inward branch-and-bound, the exhaustive method for sparse rulers and
 * minimum-redundancy arrays (Leech, 1956): grid points are decided in the
 * order 1, l-1, 2, l-2, ... (from 2, l-2 when filtered pins 1 and l-1),
 * "sensor" before "no sensor", until n sensors are placed. A node is cut
 * when
 *  - final lag: points 0..j and l-j..l are decided, so lag l-j has its final
 *    weight (a pair (a, a+l-j) needs a <= j), and that weight is below 2;
 *  - pair budget: of the C(m,2)-1 pairs of the m sensors placed, those past
 *    the second on their lag are wasted, and the waste exceeds the
 *    C(n,2)-1-2(l-1) pairs a valid array can spare (waste never falls);
 *  - lex window: the decided left part 0..j puts every array below the node
 *    before the window's first combination or after its last.
 * A valid leaf inside the window becomes the window's last combination (the
 * lex cut), so the search ends on the first valid array in lex order.
 *
 * The sensors placed so far keep the lags of their pairs as once/twice/thrice
 * bitmasks (lags of weight >= 1, 2, 3), the bitmap method of Golomb-ruler
 * search (Dollas, Rankin & McCracken, 1998). Adding a sensor x costs a few
 * word operations: its lags to the sensors above it are S >> x, and its lags
 * to those below are R >> (W-1-x), where R holds the same sensors
 * bit-reversed in a W-bit set. Bitsets are one 64-bit word for l <= 63, two
 * for l <= 127 and four for l <= 255; search1, search2 and search4 pin the
 * width to a constant so the compiler specialises each. Everything the
 * search touches lives on the calling thread's stack, so threads may run it
 * at once.
 *
 * Ranks reach C(254, 34) < 2^141, so they are three 64-bit words. They come
 * from a table of binomials filled row by row, while the caller holds the
 * GIL, up to the largest stage size asked for so far.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
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

/* The rest of validity for a covered leaf: no lag of weight exactly 2 has
 * its two pairs chained through one sensor (a, a+g, a+2g), which a single
 * failure would break. The aperture lag l needs no test: only the pair
 * (0, l) spans it, so its weight is 1 in every candidate, and twice never
 * holds it. */
INLINE int robust(const state *st, int nw)
{
    word weak[MAX_W], a[MAX_W], b[MAX_W];
    for (int i = 0; i < nw; i++)
        weak[i] = st->twice[i] & ~st->thrice[i];
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

/* Lexicographic order of two position sets on grid points 0..top: the set
 * holding the lowest point where they differ comes first. Returns < 0 if a
 * comes first, 0 if they agree on 0..top, > 0 if b comes first. */
INLINE int lexcmp(const word *a, const word *b, int top, int nw)
{
    for (int i = 0; i < nw && 64 * i <= top; i++) {
        word d = a[i] ^ b[i];
        if (64 * i + 63 > top)
            d &= ~(word)0 >> (63 - (top & 63));
        if (d)
            return a[i] & d & -d ? -1 : 1;
    }
    return 0;
}

/* 1 unless the mirror of the leaf's array comes first lexicographically;
 * the mirror {l - x} is the reversed set shifted down. */
INLINE int mirror_first(const state *st, int l, int nw)
{
    word m[MAX_W];
    shr(m, st->r, 64 * nw - 1 - l, nw);
    return lexcmp(st->s, m, l, nw) <= 0;
}

typedef struct {
    int n, l, base, slack, ndec, found;
    word lo[MAX_W], hi[MAX_W]; /* window bounds as sets; hi becomes each find */
    state st[MAX_N + 1];       /* st[m]: the m sensors placed so far */
} search;

/* Pairs past the second on their lag among the m sensors of st (0 and l
 * among them): C(m,2) pairs, less one per lag of weight >= 1 and one more
 * per lag of weight >= 2, where lag l, spanned by (0, l) alone, counts once. */
INLINE int waste(const state *st, int m, int nw)
{
    int used = 0;
    for (int i = 0; i < nw; i++)
        used += __builtin_popcountll(st->once[i]) + __builtin_popcountll(st->twice[i]);
    return m * (m - 1) / 2 - used;
}

/* The node just decided grid point x, the d-th decision: the final-lag
 * rule for a right-hand point (x = l-j makes lag x final), then the window
 * on the left part. */
INLINE int viable(const search *s, const state *st, int d, int x, int nw)
{
    int top = x;
    if (d & 1) {
        if (!(st->twice[x >> 6] >> (x & 63) & 1))
            return 0;
        top = s->l - x;
    }
    return lexcmp(st->s, s->lo, top, nw) >= 0 && lexcmp(st->s, s->hi, top, nw) <= 0;
}

/* A leaf holds n sensors and passed the pair budget on the way, which at
 * m = n says every lag 1..l-1 has weight >= 2: the leaf is covered. */
INLINE void leaf(search *s, const state *st, int nw)
{
    if (lexcmp(st->s, s->lo, s->l, nw) >= 0
        && lexcmp(st->s, s->hi, s->l, nw) <= 0
        && mirror_first(st, s->l, nw) && robust(st, nw)) {
        memcpy(s->hi, st->s, sizeof s->hi);
        s->found = 1;
    }
}

/* Decide the d-th grid point onwards with m sensors placed; recurse
 * through `next`, the width-specialised copy of this function. */
INLINE void node(search *s, int d, int m, int nw, void (*next)(search *, int, int))
{
    const state *st = &s->st[m];
    if (m == s->n) { /* the remaining points stay empty */
        leaf(s, st, nw);
        return;
    }
    int x = d & 1 ? s->l - s->base - d / 2 : s->base + d / 2; /* ends inward */
    state *up = &s->st[m + 1];
    add(up, st, x, nw);
    if (waste(up, m + 1, nw) <= s->slack && viable(s, up, d, x, nw))
        next(s, d + 1, m + 1);
    if (m + s->ndec - d > s->n && viable(s, st, d, x, nw)) /* enough points left to fill */
        next(s, d + 1, m);
}

static void search1(search *s, int d, int m) { node(s, d, m, 1, search1); }
static void search2(search *s, int d, int m) { node(s, d, m, 2, search2); }
static void search4(search *s, int d, int m) { node(s, d, m, MAX_W, search4); }

/* A rank as three 64-bit words, least significant first. */
#define RW 3
typedef struct {
    word w[RW];
} rank;

INLINE int rank_lt(const rank *a, const rank *b)
{
    for (int i = RW - 1; i >= 0; i--)
        if (a->w[i] != b->w[i])
            return a->w[i] < b->w[i];
    return 0;
}

INLINE void rank_add(rank *a, const rank *b)
{
    word carry = 0;
    for (int i = 0; i < RW; i++) {
        word t = a->w[i] + carry;
        carry = (t < carry) + __builtin_add_overflow(t, b->w[i], &a->w[i]);
    }
}

INLINE void rank_sub(rank *a, const rank *b)
{
    word borrow = 0;
    for (int i = 0; i < RW; i++) {
        word t = a->w[i] - borrow, under = a->w[i] < borrow;
        borrow = under + __builtin_sub_overflow(t, b->w[i], &a->w[i]);
    }
}

/* binom[i][j] = C(i, j) for the rows i < binom_rows; a stage chooses k <=
 * MAX_N - 2 of m <= MAX_L - 1 points. Rows are filled only with the GIL
 * held, and only read below binom_rows, so threads may search at once. */
static rank binom[MAX_L][MAX_N - 1];
static int binom_rows;

static void fill_binom(int rows)
{
    for (; binom_rows < rows; binom_rows++) {
        int i = binom_rows;
        binom[i][0].w[0] = 1;
        for (int j = 1; i > 0 && j < MAX_N - 1; j++) {
            binom[i][j] = binom[i - 1][j - 1];
            rank_add(&binom[i][j], &binom[i - 1][j]);
        }
    }
}

/* Set the bits of the r-th k-subset of 0..m-1, in lexicographic order,
 * into set, each counted from grid point base. */
static void unrank(rank r, int m, int k, int base, word *set)
{
    for (int i = 0, v = 0; i < k; i++, v++) {
        /* r < C(m - v, k - i): the subsets left from v onwards */
        while (!rank_lt(&r, &binom[m - 1 - v][k - 1 - i])) {
            rank_sub(&r, &binom[m - 1 - v][k - 1 - i]);
            v++;
        }
        set[(v + base) >> 6] |= (word)1 << ((v + base) & 63);
    }
}

/* Lexicographic rank of the k-subset c_0 < ... < c_{k-1} of 0..m-1 held in
 * set (counted from base): C(m,k) - 1 - sum C(m-1-c_i, k-i), since the
 * complements m-1-c_i in reverse order have that sum as their colex rank. */
static rank rank_of(const word *set, int m, int k, int base)
{
    rank r = binom[m][k], one = {{1}};
    rank_sub(&r, &one);
    for (int i = 0, c = 0; i < k; c++) {
        int x = c + base;
        if (set[x >> 6] >> (x & 63) & 1) {
            rank_sub(&r, &binom[m - 1 - c][k - i]);
            i++;
        }
    }
    return r;
}

/* Store the int v in *r. Returns 0, 1 when v < 0 or v >= 2^192, or -1 with
 * an exception set when v is not an int. */
static int rank_from_long(PyObject *v, const char *what, rank *r)
{
    if (!PyLong_Check(v)) {
        PyErr_Format(PyExc_TypeError, "%s must be an int, not %.100s", what, Py_TYPE(v)->tp_name);
        return -1;
    }
    PyObject *shift = PyLong_FromLong(64);
    if (shift == NULL)
        return -1;
    Py_INCREF(v);
    for (int i = 0; i < RW - 1 && v != NULL; i++) {
        r->w[i] = PyLong_AsUnsignedLongLongMask(v);
        Py_SETREF(v, PyNumber_Rshift(v, shift));
    }
    Py_DECREF(shift);
    if (v == NULL)
        return -1;
    r->w[RW - 1] = PyLong_AsUnsignedLongLong(v); /* v < 0 or too wide: OverflowError */
    Py_DECREF(v);
    if (!PyErr_Occurred())
        return 0;
    if (!PyErr_ExceptionMatches(PyExc_OverflowError))
        return -1;
    PyErr_Clear();
    return 1;
}

static PyObject *rank_to_long(const rank *r)
{
    PyObject *shift = PyLong_FromLong(64);
    PyObject *v = shift == NULL ? NULL : PyLong_FromUnsignedLongLong(r->w[RW - 1]);
    for (int i = RW - 2; i >= 0 && v != NULL; i--) {
        PyObject *low = PyLong_FromUnsignedLongLong(r->w[i]);
        Py_SETREF(v, low == NULL ? NULL : PyNumber_Lshift(v, shift));
        if (v != NULL)
            Py_SETREF(v, PyNumber_Or(v, low));
        Py_XDECREF(low);
    }
    Py_XDECREF(shift);
    return v;
}

static PyObject *scan(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "l", "start", "count", "filtered", NULL};
    int n, l, filtered = 0;
    PyObject *start_obj, *count_obj;
    rank start, count, end;
    search s;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOO|p:scan", kwlist, &n, &l, &start_obj,
                                     &count_obj, &filtered))
        return NULL;
    if (n < 4 || n > MAX_N)
        return PyErr_Format(PyExc_ValueError,
                            "sensor count %d outside supported range 4..%d", n, MAX_N);
    if (l < n || l > MAX_L)
        return PyErr_Format(PyExc_ValueError,
                            "aperture %d outside supported range %d..%d", l, n, MAX_L);
    int base = filtered ? 2 : 1; /* fixed sensors at each end */
    int k = n - 2 * base, m = l + 1 - 2 * base; /* choose k of the points base..l-base */
    fill_binom(m + 1);
    const rank *size = &binom[m][k];
    int bad = rank_from_long(start_obj, "start", &start);
    if (bad < 0)
        return NULL;
    if (bad || !rank_lt(&start, size))
        return PyErr_Format(PyExc_ValueError, "start rank outside the stage's %d-of-%d "
                            "enumeration", k, m);
    bad = rank_from_long(count_obj, "count", &count);
    if (bad < 0)
        return NULL;
    PyObject *zero = PyLong_FromLong(0);
    int positive = zero == NULL ? -1 : PyObject_RichCompareBool(count_obj, zero, Py_GT);
    Py_XDECREF(zero);
    if (positive < 0)
        return NULL;
    if (!positive)
        return Py_BuildValue("iiO", 0, -1, Py_None);
    /* end = min(start + count, size); a count of 2^192 or more reaches the end */
    rank left = *size;
    rank_sub(&left, &start);
    end = *size;
    if (!bad && rank_lt(&count, &left)) {
        end = start;
        rank_add(&end, &count);
    }

    int nw = l <= 63 ? 1 : l <= 127 ? 2 : MAX_W;
    memset(&s, 0, sizeof s);
    s.n = n;
    s.l = l;
    s.base = base;
    s.slack = n * (n - 1) / 2 - 1 - 2 * (l - 1);
    s.ndec = m; /* the grid points base..l-base */
    for (int i = 0; i < base; i++) {
        add(&s.st[2 * i + 1], &s.st[2 * i], i, nw);
        add(&s.st[2 * i + 2], &s.st[2 * i + 1], l - i, nw);
    }
    memcpy(s.lo, s.st[2 * base].s, sizeof s.lo);
    memcpy(s.hi, s.lo, sizeof s.hi);
    rank last = end, one = {{1}};
    rank_sub(&last, &one);
    unrank(start, m, k, base, s.lo);
    unrank(last, m, k, base, s.hi);

    Py_BEGIN_ALLOW_THREADS
    if (waste(&s.st[2 * base], 2 * base, nw) <= s.slack)
        (nw == 1 ? search1 : nw == 2 ? search2 : search4)(&s, 0, 2 * base);
    Py_END_ALLOW_THREADS

    if (!s.found) {
        rank_sub(&end, &start);
        PyObject *examined = rank_to_long(&end);
        return examined == NULL ? NULL : Py_BuildValue("NiO", examined, -1, Py_None);
    }
    rank offset = rank_of(s.hi, m, k, base);
    rank_sub(&offset, &start);
    PyObject *positions = PyList_New(n), *off = rank_to_long(&offset);
    rank_add(&offset, &one);
    PyObject *examined = rank_to_long(&offset);
    if (positions == NULL || off == NULL || examined == NULL) {
        Py_XDECREF(positions);
        Py_XDECREF(off);
        Py_XDECREF(examined);
        return NULL;
    }
    for (int x = 0, i = 0; x <= l; x++) {
        if (!(s.hi[x >> 6] >> (x & 63) & 1))
            continue;
        PyObject *v = PyLong_FromLong(x);
        if (v == NULL) {
            Py_DECREF(positions);
            Py_DECREF(off);
            Py_DECREF(examined);
            return NULL;
        }
        PyList_SET_ITEM(positions, i++, v);
    }
    return Py_BuildValue("NNN", examined, off, positions);
}

static PyMethodDef methods[] = {
    {"scan", (PyCFunction)(void (*)(void))scan, METH_VARARGS | METH_KEYWORDS,
     "scan(n, l, start, count, filtered=False)\n--\n\n"
     "(examined, offset, positions) of the first valid, mirror-canonical array\n"
     "among the count candidates from lexicographic rank start, as\n"
     "rmra._kernel_py.scan."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "rmra._kernel_c",
    .m_doc = "Compiled stage engine (ends-inward branch-and-bound, GIL released).",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernel_c(void)
{
    return PyModule_Create(&module);
}
