/* A simulation chunk before decode, exported as frame_chunk: the compiled
 * form of channel.frame_batch, encoder.encode, channel.modulate_bpsk and
 * channel.channel_llrs, bitwise equal to that numpy chain.
 *
 * Frame b's generator is numpy's PCG64 (128-bit LCG, XSL-RR output) seeded
 * from its four channel.seed_words: inc = (w2, w3) << 1 | 1 and state =
 * ((w0, w1) + inc) * mult + inc, mod 2^128. Its K message bits are bit 7 of
 * each little-endian byte of ceil(K/8) raw words, and its N unit normals
 * come from numpy's own ziggurat, random_standard_normal_fill in
 * libnpyrandom.a, drawn through a bitgen_t over that generator. Build with
 * -ffp-contract=off, so that sym + sigma * noise rounds as numpy's does.
 */
#include <numpy/random/bitgen.h>
#include <stdlib.h>

/* from numpy/random/distributions.h, which needs Python.h */
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);

typedef unsigned __int128 u128;

#define PCG_MULT ((u128)0x2360ED051FC65DA4 << 64 | 0x4385DF649FCCF645)

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

/* Frames from their seed words (B, 4): messages (B, K) and channel LLRs
 * (B, N). info holds the K info positions, pc flags the PC positions and L
 * is the register length. Noiseless frames get +-llr_max and draw no noise;
 * the others get 2 * (1 - 2x + sigma * noise) / sigma^2, in numpy's order.
 * Returns 0, or -1 if the scratch buffer cannot be allocated. */
int frame_chunk(int64_t B, int64_t N, int64_t K, int64_t L, const uint64_t *words, const int64_t *info,
                const uint8_t *pc, int noiseless, double sigma, double llr_max, uint8_t *msgs, double *llrs)
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
        const uint64_t *w = words + 4 * b;
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
