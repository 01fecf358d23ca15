/* A simulation chunk before decode, exported as frame_chunk: the compiled
 * form of channel.frame_batch, encoder.encode, channel.modulate_bpsk and
 * channel.channel_llrs, bitwise equal to that numpy chain.
 *
 * Frame f's generator is channel.frame_rng(master_seed, f): numpy's PCG64
 * (128-bit LCG, XSL-RR output) seeded from SeedSequence((master_seed, f)),
 * whose hash seed_state runs in full. Its K message bits are bit 7 of each
 * little-endian byte of ceil(K/8) raw words, and its N unit normals come
 * from numpy's own ziggurat, random_standard_normal_fill in libnpyrandom.a,
 * drawn through a bitgen_t over that generator. Build with
 * -ffp-contract=off, so that sym + sigma * noise rounds as numpy's does.
 */
#include <numpy/random/bitgen.h>
#include <stdlib.h>

/* from numpy/random/distributions.h, which needs Python.h */
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);

typedef unsigned __int128 u128;

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

static uint64_t pcg64_next64(void *st)
{
    pcg64_t *g = st;
    g->state = g->state * PCG_MULT + g->inc;
    uint64_t v = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return v >> rot | v << (-rot & 63);
}

static double pcg64_next_double(void *st)
{
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* Frames lo, ..., lo + B - 1 of the master seed whose nseed >= 1
 * little-endian uint32 words are seed: messages (B, K) and channel LLRs
 * (B, N). Frame f's entropy is those words, then f's: one below 2^32, two
 * above. info holds the K info positions, pc flags the PC positions and L
 * is the register length. Noiseless frames get +-llr_max and draw no noise;
 * the others get 2 * (1 - 2x + sigma * noise) / sigma^2, in numpy's order.
 * Returns 0, or -1 if the scratch buffer cannot be allocated. */
int frame_chunk(int64_t B, int64_t N, int64_t K, int64_t L, const uint32_t *seed, int64_t nseed, int64_t lo,
                const int64_t *info, const uint8_t *pc, int noiseless, double sigma, double llr_max, uint8_t *msgs,
                double *llrs)
{
    int64_t nraw = (K + 7) / 8;
    /* the raw words, then the codeword, then the chain registers */
    uint64_t *raw = malloc(nraw * sizeof *raw + N + L);
    if (!raw)
        return -1;
    uint8_t *x = (uint8_t *)(raw + nraw), *reg = x + N;
    pcg64_t g;
    bitgen_t bitgen = {.state = &g, .next_uint64 = pcg64_next64, .next_double = pcg64_next_double,
                       .next_raw = pcg64_next64}; /* the normal sampler draws no 32-bit words */
    for (int64_t b = 0; b < B; b++) {
        uint64_t w[4];
        seed_state(seed, nseed, (uint64_t)lo + b, w);
        uint8_t *m = msgs + b * K;
        double *llr = llrs + b * N;
        g.inc = ((u128)w[2] << 64 | w[3]) << 1 | 1;
        g.state = ((u128)w[0] << 64 | w[1]) + g.inc;
        g.state = g.state * PCG_MULT + g.inc;
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
            if (pc[i])
                x[i] = reg[r];
            else
                reg[r] ^= x[i];
        }
        /* the natural-order butterfly, span 1, 2, ..., N/2 */
        for (int64_t h = 1; h < N; h *= 2)
            for (int64_t j = 0; j < N; j += 2 * h)
                for (int64_t t = j; t < j + h; t++)
                    x[t] ^= x[t + h];
        if (noiseless) {
            for (int64_t i = 0; i < N; i++)
                llr[i] = x[i] ? -llr_max : llr_max;
            continue;
        }
        random_standard_normal_fill(&bitgen, N, llr);
        for (int64_t i = 0; i < N; i++) {
            double y = (1.0 - 2.0 * x[i]) + sigma * llr[i];
            llr[i] = 2.0 * y / (sigma * sigma);
        }
    }
    free(raw);
    return 0;
}
