/* A whole decode over the polar tree, exported as scan_decode: the compiled
 * form of decoders._ScanFamilyDecoder's pass loop, _traverse, _leaf_visit
 * and _hard_info, for SC (hard leaves, one pass) and the SCAN family.
 *
 * scan_decode walks the frames in blocks of BLOCK. For each block it loads
 * the frames' root LLRs into a scratch (n+1, N, blk) alpha/beta buffer,
 * runs all t_max passes on it and writes the block's per-pass decisions,
 * leaf posteriors and coded extrinsics, so the ~2.9 MB of a block at
 * N=1024 stays in cache across the passes and the scratch memory does not
 * grow with B. Frames are independent, so any block size gives the same
 * bits.
 *
 * Inside a block every buffer is frame-minor, as in the numpy engine: alpha
 * and beta are (n+1, N, blk) with row i of a level holding index i of every
 * frame, so a node's halves are contiguous blocks. rate0 is (n+1, N), row s
 * flagging the level-s nodes whose leaves are all frozen-kind. Each update
 * uses the same IEEE operations in the same order as the numpy engine, so
 * the two are bitwise-equal; build without -ffast-math and with
 * -ffp-contract=off.
 *
 * The parity layer is the L chain registers (reg[r]: f over this pass's
 * alphas of chain r's info leaves so far) and the leaf alpha cache. A
 * checked info leaf u walks its chain v = u+L, u+2L, ... from g = reg[u % L]:
 * a checked info v sets g = f(g, cache[v]), a PC v adds lambda_i * f(g,
 * cache[v]) to u's feedback, an unchecked info v ends the walk (no PC
 * follows it) and a frozen one is skipped. Only that walk reads the cache,
 * so a decode whose lambda_i is 0 in every pass neither fills nor clears it.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { LEAF_FROZEN, LEAF_PC, LEAF_CHECKED, LEAF_UNCHECKED };
enum { BLOCK = 16 }; /* frames per block */

typedef struct {
    int64_t N, B, L;
    int sequential, use_cache, hard;
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
    if (kind != LEAF_UNCHECKED && p->use_cache)
        memcpy(p->cache + u * B, a, B * sizeof *a);
    if (kind == LEAF_PC) { /* lambda_p * the register: f over I(u), the chain's info prefix */
        for (int64_t b = 0; b < B; b++)
            out[b] = p->lam_p * r[b];
        return;
    }
    if (p->hard) { /* SC: the decision as +-inf is the feedback, and joins the register */
        for (int64_t b = 0; b < B; b++)
            out[b] = a[b] < 0 ? -INFINITY : INFINITY;
        a = out;
    } else
        fill(out, 0.0, B);
    if (kind == LEAF_CHECKED && p->lam_i != 0) { /* the chain walk, before u joins the register */
        double g[BLOCK];
        memcpy(g, r, B * sizeof *r);
        for (int64_t v = u + p->L; v < p->N && p->kind[v] != LEAF_UNCHECKED; v += p->L) {
            const double *c = p->cache + v * B;
            if (p->kind[v] == LEAF_CHECKED)
                for (int64_t b = 0; b < B; b++)
                    g[b] = f(g[b], c[b]);
            else if (p->kind[v] == LEAF_PC)
                for (int64_t b = 0; b < B; b++)
                    out[b] += p->lam_i * f(g[b], c[b]);
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
    if (p->hard && len == p->N) /* SC outputs no coded extrinsics: the root's beta goes unread */
        return;
    /* beta_lo = f(b_lo, a_hi + b_hi); beta_hi = f(b_lo, a_lo) + b_hi */
    f_of_sum(beta + lo, b_lo, a_hi, b_hi, half);
    f_plus(beta + hi, b_lo, a_lo, b_hi, half);
}

/* Decode B frames with t_max passes. root is the clamped (B, N) LLRs;
 * lam_p and lam_i hold each pass's damping; info holds the K info leaves.
 * hard makes an info leaf feed back its decision as +-inf: one sequential
 * pass of it with lam_p 1 and lam_i 0 is SC, whose alpha_r is a_hi +- a_lo.
 * Writes decisions (t_max, B, K), the leaf posteriors alpha[0] + beta[0]
 * and, unless hard, the coded extrinsics beta[n], both (B, N); with hard it
 * neither computes nor writes beta[n]. Returns 0, or -1 if the
 * scratch buffers cannot be allocated. */
int scan_decode(int64_t n, int64_t B, int64_t t_max, int sequential, int hard, const double *root,
                const uint8_t *rate0, const int8_t *kind, int64_t L, const double *lam_p,
                const double *lam_i, const int64_t *info, int64_t K, uint8_t *decisions,
                double *post, double *extr)
{
    int64_t N = (int64_t)1 << n, NB = N * BLOCK;
    int use_cache = 0;
    for (int64_t t = 0; t < t_max; t++)
        use_cache |= lam_i[t] != 0;
    /* alpha and beta levels, then the cache, then the registers */
    double *scratch = malloc(((2 * n + 3) * NB + L * BLOCK) * sizeof *scratch);
    if (!scratch)
        return -1;
    pass_t p = {.N = N, .L = L, .sequential = sequential, .use_cache = use_cache, .hard = hard,
                .alpha = scratch, .rate0 = rate0, .kind = kind};
    for (int64_t f0 = 0; f0 < B; f0 += BLOCK) {
        int64_t nb = B - f0 < BLOCK ? B - f0 : BLOCK, nN = N * nb;
        p.B = nb;
        p.beta = p.alpha + (n + 1) * nN;
        p.cache = p.beta + (n + 1) * nN;
        p.reg = p.cache + nN;
        double *alpha_root = p.alpha + n * nN;
        const double *alpha0 = p.alpha, *beta0 = p.beta, *beta_root = p.beta + n * nN;
        /* the numpy engine's zeroed start: alpha[1..n-1] is always written
         * before it is read, alpha[0] is not under rate-0 nodes */
        memset(p.alpha, 0, nN * sizeof *p.alpha);
        memset(p.beta, 0, (n + 1) * nN * sizeof *p.beta);
        if (use_cache)
            memset(p.cache, 0, nN * sizeof *p.cache);
        for (int64_t i = 0; i < N; i++)
            for (int64_t b = 0; b < nb; b++)
                alpha_root[i * nb + b] = root[(f0 + b) * N + i];
        for (int64_t t = 0; t < t_max; t++) {
            fill(p.reg, INFINITY, L * nb);
            p.lam_p = lam_p[t];
            p.lam_i = lam_i[t];
            traverse(&p, (int)n, 0);
            uint8_t *dec = decisions + (t * B + f0) * K;
            for (int64_t k = 0; k < K; k++) {
                const double *a = alpha0 + info[k] * nb, *bt = beta0 + info[k] * nb;
                for (int64_t b = 0; b < nb; b++)
                    dec[b * K + k] = a[b] + bt[b] < 0;
            }
        }
        for (int64_t i = 0; i < N; i++)
            for (int64_t b = 0; b < nb; b++)
                post[(f0 + b) * N + i] = alpha0[i * nb + b] + beta0[i * nb + b];
        if (!hard)
            for (int64_t i = 0; i < N; i++)
                for (int64_t b = 0; b < nb; b++)
                    extr[(f0 + b) * N + i] = beta_root[i * nb + b];
    }
    free(scratch);
    return 0;
}
