/* Compiled stage engine behind rmra.kernel.scan.
 *
 * scan(n, l, start, count, filtered=False, *, nodes=False) keeps the
 * contract of rmra._kernel_py.scan: the window is the count candidates of
 * stage (n, l) from lexicographic rank start onwards (cut at the stage end),
 * and it returns (examined, offset, positions, index) for the first valid
 * array in the window that is mirror-canonical, where index is its rank in
 * the unfiltered numbering, or (examined, -1, None, None). An array whose
 * mirror comes first is skipped: validity is mirror-invariant and the mirror
 * lies in the same stage, so a stage's first valid array is always
 * mirror-canonical and skipping never changes it. The engine unranks the
 * window's ends into sets, searches between them without visiting the
 * candidates before the find, and ranks the find, so examined is the find's
 * offset plus one, or the window size. With nodes=True the result gains a
 * fifth element, the number of search nodes the call visited (leaves
 * included): an exact count that repeats from run to run, so it measures the
 * tree apart from the machine's speed. 4 <= n <= 36 and n <= l <= 255.
 *
 * Ends-inward branch-and-bound, the exhaustive method for sparse rulers and
 * minimum-redundancy arrays (Leech, 1956): grid points are decided in the
 * order 1, l-1, 2, l-2, ... (from 2, l-2 when filtered pins 1 and l-1)
 * until n sensors are placed. A left point tries "sensor" before "no
 * sensor", which is lex order; a right point tries "no sensor" first. The
 * lex-first valid array is mirror-canonical, so it is dense at the left end
 * and sparse at the right, and there the empty child is the one that holds
 * it. The order changes which nodes are visited before the search ends,
 * not where it ends (the lex cut below keeps the lex-first find). The found
 * stages of a 12-sensor search visit 4x fewer nodes than with "sensor" first
 * at both ends. An exhausted stage visits every node in any order, so past
 * 14 sensors, where a stage's nodes lie mostly before a late find, the gain
 * is small. There each node costs about 20 % more: the compiler turns a
 * node's last child into a loop and its first into a call, and at a right
 * point the empty child, now the call, is about 4x as common as the sensor
 * child. A node is cut when
 *  - final lag: points 0..j and l-j..l are decided, so lag l-j has its final
 *    weight (a pair (a, a+l-j) needs a <= j), and that weight is below 2;
 *  - pair budget: of the C(m,2)-1 pairs of the m sensors placed, those past
 *    the second on their lag are wasted, and the waste exceeds the
 *    C(n,2)-1-2(l-1) pairs a valid array can spare (waste never falls);
 *  - lex window: the decided left part 0..j puts every array below the node
 *    before the window's first combination or after its last. Each node
 *    carries two flags, whether its left part still equals the first's or
 *    the last's on 0..j; only a tied part can leave the window, and only
 *    where the next left point differs from that end, so a left decision
 *    costs two bit tests and a right one, which leaves the left part as it
 *    was, none.
 * A valid leaf inside the window becomes the window's last combination (the
 * lex cut), so the search ends on the first valid array in lex order. The
 * find lies below every node on the path to it, so each of them ties the
 * new last combination from then on: a node whose first child, sensor or
 * no sensor, found an array searches its second child tied to the last
 * combination again. Without that re-tie the second child is not cut by
 * the new find, and the right-end order loses its gain.
 *
 * The sensors placed so far keep the lags of their pairs as once/twice/thrice
 * bitmasks (lags of weight >= 1, 2, 3), the bitmap method of Golomb-ruler
 * search (Dollas, Rankin & McCracken, 1998). Adding a sensor x costs a few
 * word operations: its lags to the sensors above it are S >> x, and its lags
 * to those below are R >> (W-1-x), where R holds the same sensors
 * bit-reversed in a W-bit set. Bitsets are one 64-bit word for l <= 63, two
 * for l <= 127 and four for l <= 255; search1, search2 and search4 pin the
 * width to a constant so the compiler specialises each. On x86-64 they are
 * compiled for POPCNT, which counts a word's bits for the pair budget in one
 * instruction (libgcc's routine otherwise); the module will not load on a
 * CPU without it, and rmra.kernel falls back to the pure-Python scanner.
 * Everything the search touches, its node count included, lives on the
 * calling thread's stack, so threads may run it at once.
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
    int n, l, base, slack, ndec, found; /* found: finds so far */
    unsigned long long nodes;  /* node() calls so far, leaves included */
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

INLINE int bit(const word *set, int x)
{
    return set[x >> 6] >> (x & 63) & 1;
}

/* Window ties of the decided left part: it equals the window's first
 * combination on those points (TIE_LO), or its last (TIE_HI). A left part
 * untied from an end already lies strictly on the window's side of it, so
 * only a tied one can leave the window, and only at the next left point. */
#define TIE_LO 1
#define TIE_HI 2

/* The window test of a left decision: b = 1 puts a sensor at x, b = 0
 * leaves it empty. Returns the ties of the new left part 0..x, or -1 when
 * it puts every array below the node before lo or after hi. */
INLINE int window(const search *s, int tie, int x, int b)
{
    if (tie & TIE_LO) {
        int a = bit(s->lo, x);
        if (b > a) /* a sensor lo lacks: before lo */
            return -1;
        if (b < a)
            tie &= ~TIE_LO;
    }
    if (tie & TIE_HI) {
        int a = bit(s->hi, x);
        if (b < a) /* no sensor where hi has one: after hi */
            return -1;
        if (b > a)
            tie &= ~TIE_HI;
    }
    return tie;
}

/* Whether the child that just decided grid point x (sensor or not, as st
 * holds it) is searched, and with which ties: a right decision x = l-j
 * leaves the left part as it was and makes lag x final, so only the
 * final-lag rule applies; a left one applies the window test. */
INLINE void child(search *s, const state *st, int d, int m, int x, int b, int tie,
                  void (*next)(search *, int, int, int))
{
    if (d & 1) {
        if (bit(st->twice, x))
            next(s, d + 1, m, tie);
    } else if ((tie = window(s, tie, x, b)) >= 0) {
        next(s, d + 1, m, tie);
    }
}

/* A leaf holds n sensors and passed the pair budget on the way, which at
 * m = n says every lag 1..l-1 has weight >= 2: the leaf is covered. */
INLINE void leaf(search *s, const state *st, int nw)
{
    if (lexcmp(st->s, s->lo, s->l, nw) >= 0
        && lexcmp(st->s, s->hi, s->l, nw) <= 0
        && mirror_first(st, s->l, nw) && robust(st, nw)) {
        memcpy(s->hi, st->s, sizeof s->hi);
        s->found++;
    }
}

/* Decide the d-th grid point onwards with m sensors placed and the left
 * part tied to the window as tie says; recurse through `next`, the
 * width-specialised copy of this function. */
INLINE void node(search *s, int d, int m, int tie, int nw,
                 void (*next)(search *, int, int, int))
{
    const state *st = &s->st[m];
    s->nodes++;
    if (m == s->n) { /* the remaining points stay empty */
        leaf(s, st, nw);
        return;
    }
    int right = d & 1, x = right ? s->l - s->base - d / 2 : s->base + d / 2; /* ends inward */
    int room = m + s->ndec - d > s->n; /* enough points left to fill without x */
    int found = s->found;
    if (right && room) /* no sensor first at the right end */
        child(s, st, d, m, x, 0, tie, next);
    if (s->found != found) /* the find lies below: hi now shares this left part */
        tie |= TIE_HI;
    state *up = &s->st[m + 1]; /* filled only now: the empty child's subtree writes it */
    add(up, st, x, nw);
    if (waste(up, m + 1, nw) <= s->slack)
        child(s, up, d, m + 1, x, 1, tie, next);
    if (s->found != found) /* as above, for the sensor child */
        tie |= TIE_HI;
    if (!right && room)
        child(s, st, d, m, x, 0, tie, next);
}

/* POPCNT on x86-64 (see the header); PyInit__kernel_c checks the CPU for it. */
#if defined(__x86_64__) && defined(__GNUC__)
#define SEARCH __attribute__((target("popcnt"))) static void
#else
#define SEARCH static void
#endif

SEARCH search1(search *s, int d, int m, int tie) { node(s, d, m, tie, 1, search1); }
SEARCH search2(search *s, int d, int m, int tie) { node(s, d, m, tie, 2, search2); }
SEARCH search4(search *s, int d, int m, int tie) { node(s, d, m, tie, MAX_W, search4); }

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
    memset(r, 0, sizeof *r);
    r->w[0] = PyLong_AsUnsignedLongLong(v); /* the common case: one word */
    if (!PyErr_Occurred())
        return 0;
    if (!PyErr_ExceptionMatches(PyExc_OverflowError))
        return -1;
    PyErr_Clear();
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
    if (!r->w[1] && !r->w[2]) /* the common case: one word */
        return PyLong_FromUnsignedLongLong(r->w[0]);
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
    static char *kwlist[] = {"n", "l", "start", "count", "filtered", "nodes", NULL};
    int n, l, filtered = 0, nodes = 0;
    PyObject *start_obj, *count_obj;
    rank start, count, end;
    search s;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOO|p$p:scan", kwlist, &n, &l, &start_obj,
                                     &count_obj, &filtered, &nodes))
        return NULL;
    /* with nodes, each result gains the node count: its format ends in K,
     * and without it the count, one argument past the format, is unread */
#define RESULT(format) (nodes ? format "K" : format)
    if (n < 4 || n > MAX_N)
        return PyErr_Format(PyExc_ValueError,
                            "sensor count %d outside supported range 4..%d", n, MAX_N);
    if (l < n || l > MAX_L)
        return PyErr_Format(PyExc_ValueError,
                            "aperture %d outside supported range %d..%d", l, n, MAX_L);
    int base = filtered ? 2 : 1; /* fixed sensors at each end */
    int k = n - 2 * base, m = l + 1 - 2 * base; /* choose k of the points base..l-base */
    fill_binom(l); /* rows up to l - 1: this numbering's and the unfiltered one's */
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
    /* count read as 0 <= count < 2^192 is positive unless all zero; outside
     * that range it is negative or reaches past the stage end */
    int positive = (count.w[0] | count.w[1] | count.w[2]) != 0;
    if (bad) {
        PyObject *zero = PyLong_FromLong(0);
        positive = zero == NULL ? -1 : PyObject_RichCompareBool(count_obj, zero, Py_GT);
        Py_XDECREF(zero);
    }
    if (positive < 0)
        return NULL;
    if (!positive)
        return Py_BuildValue(RESULT("iiOO"), 0, -1, Py_None, Py_None, 0ULL);
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
        (nw == 1 ? search1 : nw == 2 ? search2 : search4)(&s, 0, 2 * base, TIE_LO | TIE_HI);
    Py_END_ALLOW_THREADS

    if (!s.found) {
        rank_sub(&end, &start);
        return Py_BuildValue(RESULT("NiOO"), rank_to_long(&end), -1, Py_None, Py_None,
                             s.nodes);
    }
    /* the find's rank in the unfiltered numbering, and its offset in this one */
    rank index = rank_of(s.hi, l - 1, n - 2, 1);
    rank offset = filtered ? rank_of(s.hi, m, k, base) : index;
    rank_sub(&offset, &start);
    rank examined = offset;
    rank_add(&examined, &one);
    PyObject *positions = PyList_New(n);
    for (int x = 0, i = 0; positions != NULL && x <= l; x++) {
        if (!bit(s.hi, x))
            continue;
        PyObject *v = PyLong_FromLong(x);
        if (v == NULL)
            Py_CLEAR(positions);
        else
            PyList_SET_ITEM(positions, i++, v);
    }
    if (positions == NULL)
        return NULL;
    /* a NULL from rank_to_long makes Py_BuildValue release the rest and fail */
    return Py_BuildValue(RESULT("NNNN"), rank_to_long(&examined), rank_to_long(&offset),
                         positions, rank_to_long(&index), s.nodes);
#undef RESULT
}

static PyMethodDef methods[] = {
    {"scan", (PyCFunction)(void (*)(void))scan, METH_VARARGS | METH_KEYWORDS,
     "scan(n, l, start, count, filtered=False, *, nodes=False)\n--\n\n"
     "(examined, offset, positions, index) of the first valid, mirror-canonical\n"
     "array among the count candidates from lexicographic rank start, as\n"
     "rmra._kernel_py.scan; with nodes=True, the search's node count follows."},
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
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("popcnt")) {
        PyErr_SetString(PyExc_ImportError, "rmra._kernel_c needs a CPU with POPCNT");
        return NULL;
    }
#endif
    return PyModule_Create(&module);
}
