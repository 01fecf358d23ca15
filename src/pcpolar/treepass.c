/* A whole decode over the polar tree, exported as scan_decode: the compiled
 * form of decoders._ScanFamilyDecoder's pass loop, _traverse, _leaf_visit
 * and _hard_info, for SC (hard leaves, one pass) and the SCAN family.
 *
 * scan_decode walks the frames in blocks of BLOCK. For each block it loads
 * the frames' root LLRs into scratch alpha/beta buffers, runs all t_max
 * passes on them and writes the block's per-pass decisions and, unless its
 * soft block is NULL (a caller that reads the decisions only, as the
 * simulator), its rows of the soft outputs, one frame at a time, so each
 * frame's row is one contiguous write. A block's scratch stays in cache
 * across the passes and the scratch memory does not grow with B. Frames
 * are independent, so any block size gives the same bits.
 *
 * Inside a block every buffer is frame-minor, as in the numpy engine: row i
 * of a level holds index i of every frame, so a node's halves are
 * contiguous blocks. beta is (n+1, N, blk): SCAN reads every level's betas
 * of the previous pass. alpha keeps only what a pass still reads: all N
 * rows of level 0 (decisions and posteriors read them) and of level n (the
 * root LLRs), but of a level s in 1..n-1 only the 2^(s+1) rows of the
 * children of the level-(s+1) node being visited, since a node's alphas
 * are written by its parent just before the node is visited and are dead
 * once it returns. A level-s node's rows sit at (base & amask[s]) from row
 * aoff[s]. With the leaf cache that makes (n+6) N blk doubles, 2.1 MB at
 * N=1024, in place of the 3.0 MB of full alpha levels. rate0 is (n+1, N),
 * row s flagging the level-s nodes whose leaves are all frozen-kind.
 *
 * Each update uses the same IEEE operations in the same order as the numpy
 * engine, so the two are bitwise-equal; build without -ffast-math and with
 * -ffp-contract=off. On x86-64 glibc, scan_decode and the functions it
 * runs are cloned for AVX-512F and AVX2 next to the plain build, and the
 * loader picks the widest the CPU has. The clones only widen the vectors:
 * none targets FMA (or a -march that implies it), so a multiply and an add
 * stay two roundings and every clone gives the same bits. -DCLONES=...
 * replaces the clone attribute, e.g. to build one clone alone.
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

/* gcc has no target_clones (or no ifunc to pick one) on other ISAs and libcs */
#ifndef CLONES
#if defined(__x86_64__) && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONES
#endif
#endif

typedef struct {
    int64_t N, B, L;
    int sequential, use_cache, hard;
    double *alpha, *beta;
    int64_t aoff[64], amask[64]; /* level s's alpha rows: (base & amask[s]) from aoff[s] */
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

CLONES static void leaf(const pass_t *p, int64_t u)
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

CLONES static void traverse(const pass_t *p, int s, int64_t base)
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
    const double *a_lo = p->alpha + (p->aoff[s] + (base & p->amask[s])) * B, *a_hi = a_lo + half;
    double *a_sub = p->alpha + (p->aoff[s - 1] + (base & p->amask[s - 1])) * B;
    double *beta = p->beta + s * NB, *bsub = p->beta + (s - 1) * NB;
    const double *b_lo = bsub + lo, *b_hi = bsub + hi;
    /* alpha_l = f(a_lo, b_hi + a_hi); alpha_r = f(a_lo, b_lo) + a_hi */
    f_of_sum(a_sub, a_lo, b_hi, a_hi, half);
    if (p->sequential)
        traverse(p, s - 1, base);
    f_plus(a_sub + half, a_lo, b_lo, a_hi, half);
    if (!p->sequential)
        traverse(p, s - 1, base);
    traverse(p, s - 1, base + len / 2);
    if (p->hard && len == p->N) /* SC's coded extrinsics are zero: the root's beta keeps its +0.0 */
        return;
    /* beta_lo = f(b_lo, a_hi + b_hi); beta_hi = f(b_lo, a_lo) + b_hi */
    f_of_sum(beta + lo, b_lo, a_hi, b_hi, half);
    f_plus(beta + hi, b_lo, a_lo, b_hi, half);
}

/* Decode B frames with t_max passes. root is the (B, N) channel LLRs,
 * which each block loads clamped to +-llr_max (the numpy engine's clip);
 * lam is (2, t_max), each pass's lambda_p, then each pass's lambda_i; info
 * holds the K info leaves. hard makes an info leaf feed back its decision
 * as +-inf: one sequential pass of it with lambda_p 1 and lambda_i 0 is SC,
 * whose alpha_r is a_hi +- a_lo. Writes the decisions (t_max, B, K) and,
 * where soft is not NULL, the soft block (3, B, N): the leaf posteriors
 * alpha[0] + beta[0], the coded extrinsics beta[n] (with hard, the +0.0 of
 * the memset: traverse never updates an unpruned root) and the coded
 * posteriors, the clamped root plus beta[n] (the clamped root alone with
 * hard). The soft outputs are read from nothing else, so a NULL soft
 * leaves the decisions as they are. Returns 0, -1 if the scratch buffers
 * cannot be allocated, or -2 if an LLR is NaN (the outputs of blocks
 * before its own are then written). */
CLONES int scan_decode(int64_t n, int64_t B, int64_t t_max, int sequential, int hard, const double *root,
                       double llr_max, const uint8_t *rate0, const int8_t *kind, int64_t L, const double *lam,
                       const int64_t *info, int64_t K, uint8_t *decisions, double *soft)
{
    int64_t N = (int64_t)1 << n;
    int use_cache = 0;
    for (int64_t t = 0; t < t_max; t++)
        use_cache |= lam[t_max + t] != 0;
    pass_t p = {.N = N, .L = L, .sequential = sequential, .use_cache = use_cache, .hard = hard,
                .rate0 = rate0, .kind = kind};
    /* alpha rows: level 0, level n, then level s in 1..n-1 at 2N + 2^(s+1) - 4 */
    p.aoff[n] = N;
    p.amask[0] = p.amask[n] = N - 1;
    for (int s = 1; s < n; s++) {
        p.aoff[s] = 2 * N + ((int64_t)2 << s) - 4;
        p.amask[s] = ((int64_t)2 << s) - 1;
    }
    int64_t arows = 4 * N - 4;
    /* alpha rows, then the beta levels, then the cache, then the registers */
    double *scratch = malloc(((arows + (n + 2) * N) * BLOCK + L * BLOCK) * sizeof *scratch);
    if (!scratch)
        return -1;
    p.alpha = scratch;
    for (int64_t f0 = 0; f0 < B; f0 += BLOCK) {
        int64_t nb = B - f0 < BLOCK ? B - f0 : BLOCK, nN = N * nb;
        p.B = nb;
        p.beta = p.alpha + arows * nb;
        p.cache = p.beta + (n + 1) * nN;
        p.reg = p.cache + nN;
        double *alpha_root = p.alpha + N * nb;
        const double *alpha0 = p.alpha, *beta0 = p.beta, *beta_root = p.beta + n * nN;
        /* the numpy engine's zeroed start: alpha[1..n-1] is always written
         * before it is read, alpha[0] is not under rate-0 nodes */
        memset(p.alpha, 0, nN * sizeof *p.alpha);
        memset(p.beta, 0, (n + 1) * nN * sizeof *p.beta);
        if (use_cache)
            memset(p.cache, 0, nN * sizeof *p.cache);
        int nan = 0;
        for (int64_t i = 0; i < N; i++)
            for (int64_t b = 0; b < nb; b++) {
                double v = root[(f0 + b) * N + i];
                nan |= v != v;
                alpha_root[i * nb + b] = v < -llr_max ? -llr_max : v > llr_max ? llr_max : v;
            }
        if (nan) {
            free(scratch);
            return -2;
        }
        for (int64_t t = 0; t < t_max; t++) {
            fill(p.reg, INFINITY, L * nb);
            p.lam_p = lam[t];
            p.lam_i = lam[t_max + t];
            traverse(&p, (int)n, 0);
            uint8_t *dec = decisions + (t * B + f0) * K;
            for (int64_t k = 0; k < K; k++) {
                const double *a = alpha0 + info[k] * nb, *bt = beta0 + info[k] * nb;
                for (int64_t b = 0; b < nb; b++)
                    dec[b * K + k] = a[b] + bt[b] < 0;
            }
        }
        if (!soft)
            continue;
        for (int64_t b = 0; b < nb; b++) {
            double *post = soft + (f0 + b) * N, *extr = post + B * N, *coded = extr + B * N;
            for (int64_t i = 0, j = b; i < N; i++, j += nb) {
                post[i] = alpha0[j] + beta0[j];
                extr[i] = beta_root[j];
                coded[i] = hard ? alpha_root[j] : alpha_root[j] + beta_root[j];
            }
        }
    }
    free(scratch);
    return 0;
}
