/* One SCAN-family pass over the polar tree, exported as scan_pass: the
 * compiled form of decoders._ScanFamilyDecoder._traverse and _leaf_visit.
 *
 * Every buffer is frame-minor, as in the numpy engine: alpha and beta are
 * (n+1, N, B) with row i of a level holding index i of every frame, so a
 * node's halves are contiguous blocks. rate0 is (n+1, N), row s flagging
 * the level-s nodes whose leaves are all frozen-kind. Each update uses the
 * same IEEE operations in the same order as the numpy engine, so the two
 * are bitwise-equal; build without -ffast-math and with -ffp-contract=off.
 */
#include <math.h>
#include <stdint.h>

enum { LEAF_FROZEN, LEAF_PC, LEAF_CHECKED, LEAF_UNCHECKED };
enum { BLOCK = 256 }; /* frames per block of the set reductions */

typedef struct {
    int64_t N, B, L;
    int sequential;
    double *alpha, *beta;
    const uint8_t *rate0;
    const int8_t *kind;
    double *reg;   /* L chain registers, (L, B) */
    double *cache; /* alphas cached at PC and checked info leaves, (N, B) */
    double lam_p, lam_i;
    const int64_t *leaf_ptr, *set_ptr, *set_idx; /* the checked info leaves' sets */
} pass_t;

/* min-sum f: min(|a|, |b|), negated where exactly one input is negative
 * (zero counts positive); bitwise decoders.f_pair */
static inline double f(double a, double b)
{
    double fa = fabs(a), fb = fabs(b);
    double m = fb < fa ? fb : fa;
    return (a < 0) != (b < 0) ? -m : m;
}

static void fill(double *out, double v, int64_t len)
{
    for (int64_t i = 0; i < len; i++)
        out[i] = v;
}

/* f folded over the cached rows of set k, for frames [b0, b0 + nb):
 * the parity of the negatives and the least magnitude (decoders.f_reduce) */
static void reduce_set(const pass_t *p, int64_t k, int64_t b0, int64_t nb, double *out)
{
    double mag[BLOCK];
    uint8_t par[BLOCK];
    for (int64_t b = 0; b < nb; b++) {
        mag[b] = INFINITY;
        par[b] = 0;
    }
    for (int64_t j = p->set_ptr[k]; j < p->set_ptr[k + 1]; j++) {
        const double *x = p->cache + p->set_idx[j] * p->B + b0;
        for (int64_t b = 0; b < nb; b++) {
            double ax = fabs(x[b]);
            mag[b] = ax < mag[b] ? ax : mag[b];
            par[b] ^= x[b] < 0;
        }
    }
    for (int64_t b = 0; b < nb; b++)
        out[b] = par[b] ? -mag[b] : mag[b];
}

static void leaf(const pass_t *p, int64_t u)
{
    int64_t B = p->B;
    const double *a = p->alpha + u * B;
    double *out = p->beta + u * B, *r = p->reg + (u % p->L) * B;
    int kind = p->kind[u];
    if (kind != LEAF_UNCHECKED)
        for (int64_t b = 0; b < B; b++)
            p->cache[u * B + b] = a[b];
    if (kind == LEAF_PC) { /* lambda_p * the register: f over I(u), the chain's info prefix */
        for (int64_t b = 0; b < B; b++)
            out[b] = p->lam_p * r[b];
        return;
    }
    for (int64_t b = 0; b < B; b++)
        r[b] = f(r[b], a[b]);
    fill(out, 0.0, B);
    if (kind == LEAF_UNCHECKED || p->lam_i == 0)
        return;
    /* checked info: 0.0 plus lambda_i * f over each of its sets, in order */
    double s[BLOCK];
    for (int64_t b0 = 0; b0 < B; b0 += BLOCK) {
        int64_t nb = B - b0 < BLOCK ? B - b0 : BLOCK;
        for (int64_t k = p->leaf_ptr[u]; k < p->leaf_ptr[u + 1]; k++) {
            reduce_set(p, k, b0, nb, s);
            for (int64_t b = 0; b < nb; b++)
                out[b0 + b] += p->lam_i * s[b];
        }
    }
}

/* out = f(x, y + z) */
static void f_of_sum(double *out, const double *x, const double *y, const double *z, int64_t len)
{
    for (int64_t i = 0; i < len; i++)
        out[i] = f(x[i], y[i] + z[i]);
}

/* out = f(x, y) + z */
static void f_plus(double *out, const double *x, const double *y, const double *z, int64_t len)
{
    for (int64_t i = 0; i < len; i++)
        out[i] = f(x[i], y[i]) + z[i];
}

static void traverse(const pass_t *p, int s, int64_t base)
{
    int64_t B = p->B, NB = p->N * B, len = (int64_t)1 << s;
    if (p->rate0[s * p->N + (base >> s)]) {
        fill(p->beta + s * NB + base * B, INFINITY, len * B);
        fill(p->beta + base * B, INFINITY, len * B);
        return;
    }
    if (s == 0) {
        leaf(p, base);
        return;
    }
    int64_t half = len / 2 * B, lo = base * B, hi = lo + half;
    const double *alpha = p->alpha + s * NB;
    double *beta = p->beta + s * NB;
    double *asub = p->alpha + (s - 1) * NB, *bsub = p->beta + (s - 1) * NB;
    const double *a_lo = alpha + lo, *a_hi = alpha + hi, *b_lo = bsub + lo, *b_hi = bsub + hi;
    /* alpha_l = f(a_lo, b_hi + a_hi); alpha_r = f(a_lo, b_lo) + a_hi */
    f_of_sum(asub + lo, a_lo, b_hi, a_hi, half);
    if (p->sequential)
        traverse(p, s - 1, base);
    f_plus(asub + hi, a_lo, b_lo, a_hi, half);
    if (!p->sequential)
        traverse(p, s - 1, base);
    traverse(p, s - 1, base + len / 2);
    /* beta_lo = f(b_lo, a_hi + b_hi); beta_hi = f(b_lo, a_lo) + b_hi */
    f_of_sum(beta + lo, b_lo, a_hi, b_hi, half);
    f_plus(beta + hi, b_lo, a_lo, b_hi, half);
}

void scan_pass(int64_t n, int64_t B, int sequential, double *alpha, double *beta,
               const uint8_t *rate0, const int8_t *kind, int64_t L, double *reg, double *cache,
               double lam_p, double lam_i, const int64_t *leaf_ptr, const int64_t *set_ptr,
               const int64_t *set_idx)
{
    pass_t p = {.N = (int64_t)1 << n, .B = B, .L = L, .sequential = sequential, .alpha = alpha,
                .beta = beta, .rate0 = rate0, .kind = kind, .reg = reg, .cache = cache,
                .lam_p = lam_p, .lam_i = lam_i, .leaf_ptr = leaf_ptr, .set_ptr = set_ptr,
                .set_idx = set_idx};
    traverse(&p, (int)n, 0);
}
