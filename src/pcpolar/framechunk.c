/* A simulation chunk before decode: the compiled form of
 * channel.frame_batch and encoder.encode (frame_chunk), and of
 * channel.modulate_bpsk and channel.channel_llrs (frame_llrs), bitwise
 * equal to that numpy chain. frame_chunk makes a chunk's messages,
 * codeword bits and unit normals once; frame_llrs turns them into LLRs at
 * one SNR, so a sweep over several SNR points draws each frame once. Like
 * encode, frame_chunk sees the code as its role map and register length L.
 *
 * Frame f's generator is channel.frame_rng(master_seed, f): numpy's PCG64
 * (128-bit LCG, XSL-RR output) seeded from SeedSequence((master_seed, f)),
 * whose hash seed_state runs in full. Its K message bits are bit 7 of each
 * little-endian byte of ceil(K/8) raw words, and its N unit normals are
 * those of numpy's ziggurat (random_standard_normal in libnpyrandom.a).
 *
 * normal_fill runs that ziggurat's fast path inline: one word gives the
 * strip idx (bits 0-7), the sign (bit 8) and rabs (bits 9-60), and the
 * normal rabs * wi[idx] is taken when rabs < ki[idx], about 99% of draws.
 * The sign goes in by XOR on the sign bit, not by numpy's data-dependent
 * branch, which mispredicts on half the draws; the PCG state stays in a
 * local, written back only around a slow-path call, because gcc keeps a
 * state whose address escapes in memory. A rejected word goes to numpy's
 * own random_standard_normal through a replay generator, whose first word
 * is that word and whose later ones continue the frame's stream, so the
 * wedges and the idx-0 tail are numpy's code drawing numpy's words.
 *
 * numpy does not export ki and wi, so probe_tables reads them once per
 * process from random_standard_normal itself, with a probe generator
 * whose first word is chosen and whose later words and doubles end any
 * slow path: ki[i] is the first rabs whose word draws more than once and
 * wi[i] the output for rabs 1. sampler_check holds the tables to numpy's
 * own fill over 2^16 draws; where they differ, the simulator keeps to the
 * numpy chain. Build with -ffp-contract=off, so that sym + sigma * noise
 * rounds as numpy's does.
 */
#include <numpy/random/bitgen.h>
#include <pthread.h>
#include <stdlib.h>
#include <string.h>

/* from numpy/random/distributions.h, which needs Python.h */
double random_standard_normal(bitgen_t *bitgen_state);
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);

typedef unsigned __int128 u128;
enum { FROZEN, INFO, PC }; /* construction's roles */

#define PCG_MULT ((u128)0x2360ED051FC65DA4 << 64 | 0x4385DF649FCCF645)
/* SeedSequence's hash constants */
static const uint32_t INIT_A = 0x43B0D7E5, MULT_A = 0x931E8875, INIT_B = 0x8B51F9DD, MULT_B = 0x58F38DED;
static const uint32_t MIX_MULT_L = 0xCA01F9DD, MIX_MULT_R = 0x4973F715;

static uint32_t hashmix(uint32_t value, uint32_t *hash_const, uint32_t mult)
{
    value ^= *hash_const;
    *hash_const *= mult;
    value *= *hash_const;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = MIX_MULT_L * x - MIX_MULT_R * y;
    return r ^ r >> 16;
}

/* Entropy word i of (master seed, f): the seed's nseed words, then f's */
static uint32_t entropy(const uint32_t *seed, int64_t nseed, uint64_t f, int64_t i)
{
    return i < nseed ? seed[i] : (uint32_t)(f >> 32 * (i - nseed));
}

/* SeedSequence((master seed, f)).generate_state(4, uint64) into w, as numpy's
 * mix_entropy and generate_state compute it: f has one entropy word below
 * 2^32 and two above, and words past the pool of 4 are mixed in last */
static void seed_state(const uint32_t *seed, int64_t nseed, uint64_t f, uint64_t *w)
{
    int64_t n = nseed + 1 + (f >> 32 != 0);
    uint32_t pool[4], h = INIT_A;
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < n ? entropy(seed, nseed, f, i) : 0, &h, MULT_A);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &h, MULT_A));
    for (int64_t src = 4; src < n; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = mix(pool[dst], hashmix(entropy(seed, nseed, f, src), &h, MULT_A));
    h = INIT_B;
    for (int i = 0; i < 4; i++) {
        uint64_t low = hashmix(pool[2 * i % 4], &h, MULT_B);
        w[i] = low | (uint64_t)hashmix(pool[(2 * i + 1) % 4], &h, MULT_B) << 32;
    }
}

typedef struct {
    u128 state, inc;
} pcg64_t;

/* PCG64's XSL-RR output of a state */
static inline uint64_t pcg64_output(u128 state)
{
    uint64_t v = (uint64_t)(state >> 64) ^ (uint64_t)state;
    unsigned rot = (unsigned)(state >> 122);
    return v >> rot | v << (-rot & 63);
}

static uint64_t pcg64_next64(void *st)
{
    pcg64_t *g = st;
    g->state = g->state * PCG_MULT + g->inc;
    return pcg64_output(g->state);
}

static double pcg64_next_double(void *st)
{
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* frame_rng(master seed, f)'s generator */
static void pcg64_seed(pcg64_t *g, const uint32_t *seed, int64_t nseed, uint64_t f)
{
    uint64_t w[4];
    seed_state(seed, nseed, f, w);
    g->inc = ((u128)w[2] << 64 | w[3]) << 1 | 1;
    g->state = ((u128)w[0] << 64 | w[1]) + g->inc;
    g->state = g->state * PCG_MULT + g->inc;
}

/* A generator whose first word is a given one and whose later draws come
 * from g. Without g it is probe_tables' probe: its later words are idx
 * 128, rabs 0, which every strip takes, and its doubles 0.5 (a 0.0 never
 * ends the idx-0 tail loop). Either way it counts its draws. */
typedef struct {
    pcg64_t *g;
    uint64_t word;
    int draws;
} replay_t;

static uint64_t replay_next64(void *st)
{
    replay_t *r = st;
    if (r->draws++ == 0)
        return r->word;
    return r->g ? pcg64_next64(r->g) : 128;
}

static double replay_next_double(void *st)
{
    replay_t *r = st;
    r->draws++;
    return r->g ? pcg64_next_double(r->g) : 0.5;
}

/* numpy's random_standard_normal over a replay of word and g; *draws
 * counts the words and doubles it took */
static double replay_normal(pcg64_t *g, uint64_t word, int *draws)
{
    replay_t r = {.g = g, .word = word};
    bitgen_t bitgen = {.state = &r, .next_uint64 = replay_next64, .next_double = replay_next_double,
                       .next_raw = replay_next64}; /* the normal sampler draws no 32-bit words */
    double x = random_standard_normal(&bitgen);
    *draws = r.draws;
    return x;
}

/* numpy's ziggurat strips: its fast path takes rabs < ki[idx] as rabs * wi[idx] */
static uint64_t ki[256];
static double wi[256];
static pthread_once_t tables_once = PTHREAD_ONCE_INIT;

static void probe_tables(void)
{
    int draws;
    for (uint64_t idx = 0; idx < 256; idx++) {
        /* the first rabs in [0, 2^52) that the fast path rejects, else 2^52 */
        uint64_t lo = 0, hi = (uint64_t)1 << 52;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            replay_normal(NULL, mid << 9 | idx, &draws);
            if (draws == 1)
                lo = mid + 1;
            else
                hi = mid;
        }
        ki[idx] = lo;
        wi[idx] = replay_normal(NULL, (uint64_t)1 << 9 | idx, &draws);
    }
}

/* n unit normals from g into out, bitwise numpy's random_standard_normal_fill */
static void normal_fill(pcg64_t *g, int64_t n, double *out)
{
    u128 state = g->state, inc = g->inc;
    for (int64_t i = 0; i < n; i++) {
        state = state * PCG_MULT + inc;
        uint64_t r = pcg64_output(state), rabs = r >> 9 & 0x000FFFFFFFFFFFFF;
        unsigned idx = r & 0xFF;
        if (rabs < ki[idx]) {
            double x = (double)rabs * wi[idx];
            uint64_t bits;
            memcpy(&bits, &x, sizeof bits);
            bits ^= (r & 0x100) << 55; /* the sign bit */
            memcpy(out + i, &bits, sizeof bits);
            continue;
        }
        int draws;
        g->state = state;
        out[i] = replay_normal(g, r, &draws);
        state = g->state;
    }
    g->state = state;
}

/* 0 if normal_fill gives the bits and the end state of numpy's own fill
 * over 2^16 draws of frame 0 of master seed 0, else 1; it compares them in
 * pieces on the stack, since a large malloc raises glibc's mmap and trim
 * thresholds for the rest of the process */
int sampler_check(void)
{
    enum { PIECE = 256, DRAWS = 1 << 16 };
    pthread_once(&tables_once, probe_tables);
    double want[PIECE], got[PIECE];
    const uint32_t zero = 0;
    pcg64_t g, h;
    pcg64_seed(&g, &zero, 1, 0);
    h = g;
    bitgen_t bitgen = {.state = &h, .next_uint64 = pcg64_next64, .next_double = pcg64_next_double,
                       .next_raw = pcg64_next64};
    int differ = 0;
    for (int i = 0; i < DRAWS; i += PIECE) {
        random_standard_normal_fill(&bitgen, PIECE, want);
        normal_fill(&g, PIECE, got);
        differ |= memcmp(want, got, sizeof want) != 0;
    }
    return differ || g.state != h.state;
}

/* Frames lo, ..., lo + B - 1 of the master seed whose nseed >= 1
 * little-endian uint32 words are seed: messages (B, K), codeword bits x
 * (B, N) and, unless normals is NULL, the unit normals (B, N) that
 * frame_llrs turns into channel LLRs at each SNR. Frame f's entropy is
 * those words, then f's: one below 2^32, two above. role holds each
 * position's role, K of them INFO, and L is the register length. Returns
 * 0, or -1 if the scratch buffer cannot be allocated. */
int frame_chunk(int64_t B, int64_t N, int64_t K, int64_t L, const uint32_t *seed, int64_t nseed, int64_t lo,
                const int8_t *role, uint8_t *msgs, uint8_t *xs, double *normals)
{
    int64_t nraw = (K + 7) / 8;
    /* the raw words, then the info positions and the chain registers */
    uint64_t *raw = malloc((nraw + K) * sizeof *raw + L);
    if (!raw)
        return -1;
    int64_t *info = (int64_t *)(raw + nraw);
    uint8_t *reg = (uint8_t *)(info + K);
    for (int64_t i = 0, k = 0; i < N && k < K; i++)
        if (role[i] == INFO)
            info[k++] = i;
    pcg64_t g;
    pthread_once(&tables_once, probe_tables);
    for (int64_t b = 0; b < B; b++) {
        uint8_t *m = msgs + b * K, *x = xs + b * N;
        pcg64_seed(&g, seed, nseed, (uint64_t)lo + b);
        for (int64_t j = 0; j < nraw; j++)
            raw[j] = pcg64_next64(&g);
        for (int64_t k = 0; k < K; k++)
            m[k] = raw[k / 8] >> (8 * (k % 8) + 7) & 1;
        /* scatter, then PC pre-coding: a PC position reads its register,
         * an info position folds its bit into it */
        for (int64_t i = 0; i < N; i++)
            x[i] = 0;
        for (int64_t k = 0; k < K; k++)
            x[info[k]] = m[k];
        for (int64_t r = 0; r < L; r++)
            reg[r] = 0;
        for (int64_t i = 0, r = 0; i < N; i++, r = r + 1 == L ? 0 : r + 1) {
            if (role[i] == PC)
                x[i] = reg[r];
            else
                reg[r] ^= x[i];
        }
        /* the natural-order butterfly, span 1, 2, ..., N/2 */
        for (int64_t h = 1; h < N; h *= 2)
            for (int64_t j = 0; j < N; j += 2 * h)
                for (int64_t t = j; t < j + h; t++)
                    x[t] ^= x[t + h];
        if (normals)
            normal_fill(&g, N, normals + b * N);
    }
    free(raw);
    return 0;
}

/* The channel LLRs of n codeword bits x over their unit normals at noise
 * sigma: 2 * (1 - 2x + sigma * normal) / sigma^2, in numpy's order; sigma
 * 0.0 makes noiseless LLRs, +-llr_max, and leaves normals unread (it may
 * be NULL). llr may be normals itself. */
void frame_llrs(int64_t n, const uint8_t *x, const double *normals, double sigma, double llr_max, double *llr)
{
    if (sigma == 0.0) {
        for (int64_t i = 0; i < n; i++)
            llr[i] = x[i] ? -llr_max : llr_max;
        return;
    }
    for (int64_t i = 0; i < n; i++) {
        double y = (1.0 - 2.0 * x[i]) + sigma * normals[i];
        llr[i] = 2.0 * y / (sigma * sigma);
    }
}
