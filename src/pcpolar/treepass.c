/* One SCAN-family pass over the polar tree, exported as scan_pass: the
 * compiled form of decoders._ScanFamilyDecoder._traverse and _leaf_visit.
 *
 * Every buffer is frame-minor, as in the numpy engine: alpha and beta are
 * (n+1, N, B) with row i of a level holding index i of every frame, so a
 * node's halves are contiguous blocks. rate0 is (n+1, N), row s flagging
 * the level-s nodes whose leaves are all frozen-kind. Each update uses the
 * same IEEE operations in the same order as the numpy engine, so the two
 * are bitwise-equal; build without -ffast-math and with -ffp-contract=off.
 *
 * The parity layer is the L chain registers (reg[r]: f over this pass's
 * alphas of chain r's info leaves so far) and the leaf alpha cache. A
 * checked info leaf u walks its chain v = u+L, u+2L, ... from g = reg[u % L]:
 * a checked info v sets g = f(g, cache[v]), a PC v adds lambda_i * f(g,
 * cache[v]) to u's feedback, an unchecked info v ends the walk (no PC
 * follows it) and a frozen one is skipped.
 */
#include <math.h>
#include <stdint.h>

enum { LEAF_FROZEN, LEAF_PC, LEAF_CHECKED, LEAF_UNCHECKED };
enum { BLOCK = 256 }; /* frames per block of a checked info leaf's walk */

typedef struct {
    int64_t N, B, L;
    int sequential;
    double *alpha, *beta;
    const uint8_t *rate0;
    const int8_t *kind;
    double *reg;   /* L chain registers, (L, B) */
    double *cache; /* alphas cached at PC and checked info leaves, (N, B) */
    double lam_p, lam_i;
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
    fill(out, 0.0, B);
    if (kind == LEAF_CHECKED && p->lam_i != 0) /* the chain walk, before u joins the register */
        for (int64_t b0 = 0; b0 < B; b0 += BLOCK) {
            int64_t nb = B - b0 < BLOCK ? B - b0 : BLOCK;
            double g[BLOCK];
            for (int64_t b = 0; b < nb; b++)
                g[b] = r[b0 + b];
            for (int64_t v = u + p->L; v < p->N && p->kind[v] != LEAF_UNCHECKED; v += p->L) {
                const double *c = p->cache + v * B + b0;
                if (p->kind[v] == LEAF_CHECKED)
                    for (int64_t b = 0; b < nb; b++)
                        g[b] = f(g[b], c[b]);
                else if (p->kind[v] == LEAF_PC)
                    for (int64_t b = 0; b < nb; b++)
                        out[b0 + b] += p->lam_i * f(g[b], c[b]);
            }
        }
    for (int64_t b = 0; b < B; b++)
        r[b] = f(r[b], a[b]);
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
               double lam_p, double lam_i)
{
    pass_t p = {.N = (int64_t)1 << n, .B = B, .L = L, .sequential = sequential, .alpha = alpha,
                .beta = beta, .rate0 = rate0, .kind = kind, .reg = reg, .cache = cache,
                .lam_p = lam_p, .lam_i = lam_i};
    traverse(&p, (int)n, 0);
}
