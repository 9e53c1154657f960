/* Native kernels for the repro label store: decode/distance, the Freedman
 * encoder, and the serving stack's RSP/1 QUERY/RESULT codec.
 *
 * Compiled into a tiny shared library (no Python.h — loaded through cffi's
 * ABI mode, dlopen-style) and called with raw pointers into
 * ``LabelStore.buffers()``: the payload byte buffer, the byte-offset index
 * and the bit-length index.  Every routine returns 0 on success and 1 when
 * it meets anything it is not prepared to handle — unknown widths, corrupt
 * streams, values near the 64-bit limit.  The Python caller treats a
 * nonzero return as "fall back to the packed-Python path", which reproduces
 * the exact reference behaviour (including the exception raised for
 * genuinely corrupt labels).  The C side therefore never needs to be
 * bug-for-bug complete: it only needs to be *silent* about what it skips
 * and byte-identical on what it accepts.
 *
 * There is one decoder per scheme family (``hld_decode`` and ``fr_decode``),
 * reading one label at full width; ``pack`` turns it into one compact,
 * self-contained record.  Two owners hold records:
 *
 * - the **arena** (``repro_arena_*``): one per serving engine, so one per
 *   store, holding each label decoded once per residency.  Its budget is
 *   a label count and its policy is FIFO: a batch dedups its endpoints,
 *   resident ones count as hits (no promotion), the rest are decoded and
 *   appended in first-seen order (all first endpoints, then all second
 *   endpoints) as misses, and the oldest entries are trimmed to budget once
 *   the batch is answered.  If any endpoint is out of range or fails to
 *   decode, the batch admits nothing and declines.  A mutex guards every
 *   arena call, since cffi releases the GIL around them;
 * - the **transient** decode of ``repro_matrix``, which packs its targets
 *   into private records and frees them on return, so a matrix running on
 *   a worker thread never touches an arena.  ``repro_checksum`` folds the
 *   decoder's full-width fields and makes no record at all.
 *
 * Two routines have no fallback.  The Freedman encoder
 * (``repro_fr_encoder_*``) writes the labels the Python encoder would, for
 * every tree, in runs whose bit lengths and byte ends are the store's index
 * arrays as they stand, and fails only when memory runs out.  The index
 * decoder (``repro_decode_index``) reads a store's varint index straight
 * into those arrays and says why it refuses a corrupt one;
 * ``repro_encode_index`` writes it back.  The RSP/1 codec (``repro_scan_*``,
 * ``repro_encode_results`` and ``repro_encode_queries``, at the end of the
 * file) works on wire bytes, not labels: its scanners stop at any frame
 * they do not take, and the Python decoder reads that frame; its encoders
 * write the plain frames (the server's RESULTs, the client's corked
 * QUERYs) and refuse only a negative value, which the Python encoder
 * then rejects as it always has.
 *
 * Bit layout contract (matching repro.encoding.bitio): MSB-first within the
 * packed stream; label i starts at bit offset offs[i] * 8 and is lens[i]
 * bits long.  Codes: unary 0^k 1; Elias gamma = unary(zeros) + zeros bits,
 * value ((1 << zeros) | rest) - 1; Elias delta = gamma(width - 1) + width-1
 * bits; Lemma 2.2 monotone = gamma(count), gamma(low_width), count packed
 * low parts, count unary-coded high-part differences.
 */

#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#define E_OK 0
#define E_FALLBACK 1

/* Arbitrary sanity ceilings: anything above falls back to Python (which
 * handles unbounded integers).  Chosen so every intermediate fits int64
 * with room to spare, and so a record can keep bit offsets relative to its
 * label's start in 32 bits. */
#define MAX_COUNT (1u << 20)
#define MAX_VALUE_BITS 56
#define MAX_LABEL_BITS 0xFFFFFFFFull

#define ABI_VERSION 9

#define KIND_HLD 0
#define KIND_FREEDMAN 1

int repro_kernels_abi(void) { return ABI_VERSION; }

/* -- bit reader ---------------------------------------------------------- */

/* A reader over bits [end - left, end) of a payload.  The upcoming bits sit
 * MSB-aligned in ``buf`` (``have`` of them valid, zeros below), refilled
 * with one unaligned load once fewer than 57 remain, so a code is decoded
 * from a register instead of a load that waits on the previous code. */
typedef struct {
    const uint8_t *base;
    uint64_t nbytes; /* payload size: loads never read past it */
    uint64_t end;    /* absolute bit just past the readable range */
    uint64_t left;   /* bits between the read position and ``end`` */
    uint64_t buf;
    uint32_t have;
} br_t;

#define BR_POS(r) ((r)->end - (r)->left)

/* The 64 bits starting at byte ``i``, big-endian, zero past the payload. */
static inline uint64_t br_load(const uint8_t *base, uint64_t nbytes, uint64_t i) {
    uint64_t w = 0;
    int k;
    if (i + 8 <= nbytes) {
        memcpy(&w, base + i, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
        w = __builtin_bswap64(w);
#endif
        return w;
    }
    for (k = 0; k < 8; k++) w = (w << 8) | (i + k < nbytes ? base[i + k] : 0u);
    return w;
}

static inline void br_init(br_t *r, const uint8_t *base, uint64_t nbytes,
                           uint64_t pos, uint64_t end) {
    r->base = base;
    r->nbytes = nbytes;
    r->end = end;
    r->left = end - pos;
    r->buf = 0;
    r->have = 0;
}

/* Afterwards at least 57 bits are buffered. */
static inline void br_refill(br_t *r) {
    uint64_t pos = BR_POS(r);
    r->buf = br_load(r->base, r->nbytes, pos >> 3) << (pos & 7);
    r->have = 64 - (uint32_t)(pos & 7);
}

/* Consume ``n <= have`` buffered bits. */
static inline void br_skip(br_t *r, uint32_t n) {
    r->buf = n < 64 ? r->buf << n : 0;
    r->have -= n;
    r->left -= n;
}

/* Jump ``n`` bits ahead, past a field that is read later by offset. */
static inline int br_advance(br_t *r, uint64_t n) {
    if (n > r->left) return E_FALLBACK;
    if (n <= r->have) {
        br_skip(r, (uint32_t)n);
    } else {
        r->left -= n;
        r->buf = 0;
        r->have = 0;
    }
    return E_OK;
}

static inline int br_read(br_t *r, uint32_t width, uint64_t *out) {
    uint64_t high;
    if (width > 63 || width > r->left) return E_FALLBACK;
    if (width > 57) {
        if (br_read(r, width - 32, &high) || br_read(r, 32, out)) return E_FALLBACK;
        *out |= high << 32;
        return E_OK;
    }
    if (r->have < width) br_refill(r);
    *out = width ? r->buf >> (64 - width) : 0;
    br_skip(r, width);
    return E_OK;
}

static inline int br_unary(br_t *r, uint64_t *zeros) {
    uint64_t count = 0;
    for (;;) {
        if (!r->buf) br_refill(r);
        if (r->buf) {
            uint32_t z = (uint32_t)__builtin_clzll(r->buf);
            if ((uint64_t)z + 1 > r->left) return E_FALLBACK;
            br_skip(r, z + 1);
            *zeros = count + z;
            return E_OK;
        }
        if (r->have >= r->left) return E_FALLBACK; /* no 1 before the end */
        count += r->have;
        br_skip(r, r->have);
    }
}

/* Gamma code 0^z 1 rest, value ((1 << z) | rest) - 1: when the whole code
 * is buffered, its top 2z+1 bits are (1 << z) | rest. */
static inline int br_gamma(br_t *r, uint64_t *out) {
    uint64_t zeros, rest = 0;
    int tries;
    for (tries = 0; tries < 2; tries++) {
        if (r->buf) {
            uint32_t size = 2 * (uint32_t)__builtin_clzll(r->buf) + 1;
            if (size <= r->have) {
                if (size > r->left) return E_FALLBACK;
                *out = (r->buf >> (64 - size)) - 1;
                br_skip(r, size);
                return E_OK;
            }
        }
        br_refill(r);
    }
    if (br_unary(r, &zeros)) return E_FALLBACK;
    if (zeros > 62) return E_FALLBACK;
    if (zeros && br_read(r, (uint32_t)zeros, &rest)) return E_FALLBACK;
    *out = ((1ull << zeros) | rest) - 1;
    return E_OK;
}

static inline int br_delta(br_t *r, uint64_t *out) {
    uint64_t w, rest;
    if (br_gamma(r, &w)) return E_FALLBACK;
    if (w > 62) return E_FALLBACK;
    if (w == 0) {
        *out = 0;
        return E_OK;
    }
    if (br_read(r, (uint32_t)w, &rest)) return E_FALLBACK;
    *out = ((1ull << w) | rest) - 1;
    return E_OK;
}

/* -- growable uint64 vector ---------------------------------------------- */

typedef struct {
    uint64_t *data;
    size_t len;
    size_t cap;
} vec_t;

static int vec_reserve(vec_t *v, size_t extra) {
    size_t need = v->len + extra;
    size_t cap;
    uint64_t *grown;
    if (need <= v->cap) return E_OK;
    cap = v->cap ? v->cap : 64;
    while (cap < need) cap *= 2;
    grown = (uint64_t *)realloc(v->data, cap * sizeof(uint64_t));
    if (!grown) return E_FALLBACK;
    v->data = grown;
    v->cap = cap;
    return E_OK;
}

static void vec_free(vec_t *v) {
    free(v->data);
    v->data = NULL;
    v->len = v->cap = 0;
}

/* Lemma 2.2 monotone sequence: append the decoded values to ``out``. */
static int br_monotone(br_t *r, vec_t *out, uint32_t *count_out) {
    uint64_t count, low_width, high = 0;
    size_t base;
    uint64_t i;
    if (br_gamma(r, &count)) return E_FALLBACK;
    if (count > MAX_COUNT) return E_FALLBACK;
    *count_out = (uint32_t)count;
    if (count == 0) return E_OK;
    if (br_gamma(r, &low_width)) return E_FALLBACK;
    if (low_width > 62) return E_FALLBACK;
    base = out->len;
    if (vec_reserve(out, (size_t)count)) return E_FALLBACK;
    out->len += (size_t)count;
    for (i = 0; i < count; i++) {
        uint64_t low = 0;
        if (low_width && br_read(r, (uint32_t)low_width, &low)) return E_FALLBACK;
        out->data[base + i] = low;
    }
    for (i = 0; i < count; i++) {
        uint64_t zeros;
        if (br_unary(r, &zeros)) return E_FALLBACK;
        high += zeros;
        if (high >> (63 - low_width)) return E_FALLBACK;
        out->data[base + i] |= high << low_width;
        /* a decreasing sequence is malformed: let Python raise for it */
        if (i && out->data[base + i] < out->data[base + i - 1]) return E_FALLBACK;
    }
    return E_OK;
}

/* -- the store index --------------------------------------------------- */

/* Why ``repro_decode_index`` refused an index (0 when it did not). */
#define INDEX_TRUNCATED 1 /* the buffer ends inside a varint */
#define INDEX_OVERLONG 2  /* a varint past 64 bits */
#define INDEX_OVERFLOW 3  /* the label bytes add up past 2^64 */
#define INDEX_MISMATCH 4  /* they do not add up to the payload's size */

/* Decode a store's index in one pass: ``count`` LEB128 bit lengths from
 * byte ``start`` into ``lengths``, and the byte offsets of every label into
 * ``offsets`` (``count + 1`` of them, from 0), the two arrays a LabelStore
 * serves from.  The payload is the rest of the buffer, from ``*end_pos``;
 * the offsets must end at its size.  The varints are read as
 * repro.encoding.varint.decode_uvarint reads them, up to 2^64 - 1. */
int repro_decode_index(const uint8_t *buf, uint64_t buf_len, uint64_t start,
                       uint64_t count, uint64_t *lengths, uint64_t *offsets,
                       uint64_t *end_pos) {
    uint64_t pos = start, total = 0;
    uint64_t i;
    offsets[0] = 0;
    for (i = 0; i < count; i++) {
        uint64_t value = 0, bytes;
        uint32_t shift = 0;
        for (;;) {
            uint8_t byte;
            if (pos >= buf_len) return INDEX_TRUNCATED;
            byte = buf[pos++];
            if (shift == 63 && (byte & 0x7Eu)) return INDEX_OVERLONG;
            value |= ((uint64_t)(byte & 0x7Fu)) << shift;
            if (!(byte & 0x80u)) break;
            shift += 7;
            if (shift > 63) return INDEX_OVERLONG;
        }
        bytes = (value >> 3) + ((value & 7) != 0);
        if (bytes > UINT64_MAX - total) return INDEX_OVERFLOW;
        total += bytes;
        lengths[i] = value;
        offsets[i + 1] = total;
    }
    *end_pos = pos;
    return total == buf_len - pos ? 0 : INDEX_MISMATCH;
}

/* The inverse: ``count`` bit lengths as LEB128 varints into ``out``, which
 * has room for ten bytes each.  Returns the bytes written. */
uint64_t repro_encode_index(const uint64_t *lengths, uint64_t count, uint8_t *out) {
    uint8_t *at = out;
    uint64_t i;
    for (i = 0; i < count; i++) {
        uint64_t value = lengths[i];
        while (value >= 0x80u) {
            *at++ = (uint8_t)(value | 0x80u);
            value >>= 7;
        }
        *at++ = (uint8_t)value;
    }
    return (uint64_t)(at - out);
}

/* -- decoding one label -------------------------------------------------- */

/* One Freedman level as the stream holds it, every field at full width. */
typedef struct {
    uint64_t cw_val, cw_len, lw, skip, kept_val, kept_len, pushed;
    uint64_t acc_off, acc_len; /* absolute bit offset and length */
} fr_level_t;

/* A decoder over one store, and the last label it decoded with every field
 * at full width — the checksum folds exactly what the stream held, and
 * ``pack`` turns it into a compact record. */
typedef struct {
    int kind;
    const uint8_t *payload;
    uint64_t nbytes;
    const uint64_t *offs;
    const uint64_t *lens;
    int64_t n_total;
    uint32_t id_width;       /* hld: the widths of the first label decoded */
    uint32_t distance_width; /* in full, which every later label must share */
    uint64_t root_distance;
    uint32_t depth; /* levels: heavy paths (hld) or light depth (freedman) */
    vec_t ids, exits; /* hld */
    uint64_t node_id, domination; /* freedman */
    uint32_t frag_ref_count, frag_dist_count;
    fr_level_t *levels;
    size_t capacity; /* of ``levels`` */
    vec_t frag_refs, frag_dists;
} dec_t;

static void dec_init(dec_t *d, int kind, const uint8_t *payload,
                     uint64_t nbytes, const uint64_t *offs,
                     const uint64_t *lens, int64_t n_total) {
    memset(d, 0, sizeof(*d));
    d->kind = kind;
    d->payload = payload;
    d->nbytes = nbytes;
    d->offs = offs;
    d->lens = lens;
    d->n_total = n_total;
}

static void dec_free(dec_t *d) {
    vec_free(&d->ids);
    vec_free(&d->exits);
    free(d->levels);
    vec_free(&d->frag_refs);
    vec_free(&d->frag_dists);
}

/* A reader over ``node``'s label, or 1 when the node or label is out of
 * the decoder's range. */
static int dec_reader(const dec_t *d, int64_t node, br_t *r) {
    uint64_t start, nbits;
    if (node < 0 || node >= d->n_total) return E_FALLBACK;
    nbits = d->lens[node];
    start = d->offs[node] * 8;
    if (nbits > MAX_LABEL_BITS || start + nbits > d->nbytes * 8) return E_FALLBACK;
    br_init(r, d->payload, d->nbytes, start, start + nbits);
    return E_OK;
}

/* hld-fixed.  The (id_width, distance_width) header must equal the first
 * label this decoder decoded in full — a per-store invariant of the
 * encoder; anything else falls back, and Python compares mixed widths
 * itself. */
static int hld_decode(dec_t *d, int64_t node) {
    br_t r;
    uint64_t idw, dw, count, level;
    if (dec_reader(d, node, &r)) return E_FALLBACK;
    if (br_gamma(&r, &idw) || br_gamma(&r, &dw) || br_gamma(&r, &count))
        return E_FALLBACK;
    if (idw == 0 || idw > MAX_VALUE_BITS || dw == 0 || dw > MAX_VALUE_BITS ||
        count > MAX_COUNT)
        return E_FALLBACK;
    if (d->id_width && (d->id_width != idw || d->distance_width != dw))
        return E_FALLBACK;
    if (br_read(&r, (uint32_t)dw, &d->root_distance)) return E_FALLBACK;
    d->ids.len = d->exits.len = 0;
    if (vec_reserve(&d->ids, (size_t)count) || vec_reserve(&d->exits, (size_t)count))
        return E_FALLBACK;
    for (level = 0; level < count; level++) {
        if (br_read(&r, (uint32_t)idw, &d->ids.data[level]) ||
            br_read(&r, (uint32_t)dw, &d->exits.data[level]))
            return E_FALLBACK;
    }
    d->depth = (uint32_t)count;
    d->id_width = (uint32_t)idw;
    d->distance_width = (uint32_t)dw;
    return E_OK;
}

/* freedman */
static int fr_decode(dec_t *d, int64_t node) {
    br_t r;
    fr_level_t *lv;
    uint64_t depth, value;
    uint32_t level, count;
    if (dec_reader(d, node, &r)) return E_FALLBACK;
    d->frag_refs.len = d->frag_dists.len = 0;
    if (br_delta(&r, &d->node_id)) return E_FALLBACK;
    if (br_delta(&r, &d->root_distance)) return E_FALLBACK;
    if (br_delta(&r, &d->domination)) return E_FALLBACK;
    if (d->root_distance >> MAX_VALUE_BITS) return E_FALLBACK;
    if (br_gamma(&r, &depth)) return E_FALLBACK;
    if (depth > MAX_COUNT) return E_FALLBACK;
    if (depth > d->capacity) {
        size_t capacity = d->capacity ? d->capacity : 16;
        while (capacity < depth) capacity *= 2;
        lv = (fr_level_t *)realloc(d->levels, capacity * sizeof(fr_level_t));
        if (!lv) return E_FALLBACK;
        d->levels = lv;
        d->capacity = capacity;
    }
    d->depth = (uint32_t)depth;
    lv = d->levels;
    for (level = 0; level < d->depth; level++) {
        if (br_gamma(&r, &lv[level].cw_len) || lv[level].cw_len > 63) return E_FALLBACK;
        if (br_read(&r, (uint32_t)lv[level].cw_len, &lv[level].cw_val)) return E_FALLBACK;
    }
    for (level = 0; level < d->depth; level++) {
        if (br_gamma(&r, &value) || value >> MAX_VALUE_BITS) return E_FALLBACK;
        lv[level].lw = value;
    }
    if (br_monotone(&r, &d->frag_refs, &count)) return E_FALLBACK;
    d->frag_ref_count = count;
    if (br_monotone(&r, &d->frag_dists, &count)) return E_FALLBACK;
    d->frag_dist_count = count;
    for (level = 0; level < d->depth; level++) {
        uint64_t bit, len = 0, pushed = 0;
        value = 0;
        if (br_read(&r, 1, &bit)) return E_FALLBACK;
        if (!bit) {
            if (br_gamma(&r, &len) || len > MAX_VALUE_BITS) return E_FALLBACK;
            if (br_read(&r, (uint32_t)len, &value)) return E_FALLBACK;
            if (br_gamma(&r, &pushed) || pushed > MAX_VALUE_BITS) return E_FALLBACK;
            if (len + pushed > MAX_VALUE_BITS) return E_FALLBACK;
        }
        lv[level].skip = bit;
        lv[level].kept_len = len;
        lv[level].kept_val = value;
        lv[level].pushed = pushed;
    }
    for (level = 0; level < d->depth; level++) {
        if (br_gamma(&r, &lv[level].acc_len)) return E_FALLBACK;
        lv[level].acc_off = BR_POS(&r);
        if (br_advance(&r, lv[level].acc_len)) return E_FALLBACK;
    }
    return E_OK;
}

static inline int decode(dec_t *d, int64_t node) {
    return d->kind == KIND_HLD ? hld_decode(d, node) : fr_decode(d, node);
}

/* -- decoded records ------------------------------------------------------ */

/* The header every decoded label starts with; the family's fields and its
 * per-level slots follow in the same block. */
typedef struct rec {
    struct rec *next;    /* arena FIFO link, oldest first */
    struct chunk *chunk; /* arena chunk holding the record */
    uint64_t stamp;      /* arena batch that last looked the label up */
    int32_t node;
    uint32_t bytes; /* size of the record */
} rec_t;

typedef struct {
    rec_t hdr;
    uint64_t root_distance;
    uint64_t count;
    /* followed by uint64_t ids[count], exits[count] */
} hld_rec_t;

#define HLD_IDS(l) ((const uint64_t *)((l) + 1))
#define HLD_EXITS(l) (HLD_IDS(l) + (l)->count)

/* One level of a Freedman record: everything a query reads at its critical
 * level shares a 32-byte slot, so a query touches about two cache lines per
 * label (header, then the levels up to the critical one). */
typedef struct {
    uint64_t cw;   /* codeword as (1 << length) | bits: one compare */
    int64_t base;  /* fragment reference minus light weight */
    uint64_t kept; /* truncated entry bits | pushed << 56 | flags */
    uint32_t acc_off; /* accumulator offset from the label's start */
    uint32_t acc_len;
} fr_lvl_t;

#define FR_VALUE_MASK ((1ull << MAX_VALUE_BITS) - 1)
#define FR_PUSHED(l) (((l)->kept >> 56) & 63u)
#define FR_SKIP (1ull << 62)    /* the entry was skipped */
#define FR_BAD_REF (1ull << 63) /* no usable fragment reference */

typedef struct {
    rec_t hdr;
    uint32_t depth;
    uint64_t node_id, root_distance, domination;
    uint64_t label_start; /* absolute bit offset of the label */
    /* followed by fr_lvl_t levels[depth] */
} fr_rec_t;

#define FR_LEVELS(l) ((const fr_lvl_t *)((l) + 1))

/* Bytes of the record ``pack`` makes from the last decoded label. */
static size_t packed_size(const dec_t *d) {
    if (d->kind == KIND_HLD)
        return sizeof(hld_rec_t) + 2 * (size_t)d->depth * sizeof(uint64_t);
    return sizeof(fr_rec_t) + (size_t)d->depth * sizeof(fr_lvl_t);
}

/* Write the last decoded label, ``node``'s, as a record at ``rec`` (its
 * owner sets the link fields). */
static void pack(const dec_t *d, int64_t node, rec_t *rec) {
    size_t level;
    rec->node = (int32_t)node;
    rec->bytes = (uint32_t)packed_size(d);
    if (d->kind == KIND_HLD) {
        hld_rec_t *lab = (hld_rec_t *)rec;
        lab->root_distance = d->root_distance;
        lab->count = d->depth;
        memcpy(lab + 1, d->ids.data, d->depth * sizeof(uint64_t));
        memcpy((uint64_t *)(lab + 1) + d->depth, d->exits.data,
               d->depth * sizeof(uint64_t));
    } else {
        fr_rec_t *lab = (fr_rec_t *)rec;
        fr_lvl_t *out = (fr_lvl_t *)(lab + 1);
        lab->depth = d->depth;
        lab->node_id = d->node_id;
        lab->root_distance = d->root_distance;
        lab->domination = d->domination;
        lab->label_start = d->offs[node] * 8;
        for (level = 0; level < d->depth; level++) {
            const fr_level_t *lv = &d->levels[level];
            uint64_t flags = lv->skip ? FR_SKIP : 0;
            int64_t reference = 0;
            /* Python: fragment_distances[fragment_refs[level]]; past either
             * sequence FreedmanScheme.distance raises the "fragment ref is
             * out of range" ValueError, so the pair is declined here */
            if (level >= d->frag_ref_count) {
                flags |= FR_BAD_REF;
            } else {
                uint64_t ref = d->frag_refs.data[level];
                if (ref >= d->frag_dist_count ||
                    d->frag_dists.data[ref] >> MAX_VALUE_BITS)
                    flags |= FR_BAD_REF;
                else
                    reference = (int64_t)d->frag_dists.data[ref];
            }
            out[level].cw = (1ull << lv->cw_len) | lv->cw_val;
            out[level].base = reference - (int64_t)lv->lw;
            out[level].kept = lv->kept_val | lv->pushed << 56 | flags;
            out[level].acc_off = (uint32_t)(lv->acc_off - lab->label_start);
            out[level].acc_len = (uint32_t)lv->acc_len;
        }
    }
}

/* -- distances ------------------------------------------------------------ */

/* Deepest-common-heavy-path distance; err set on foreign-tree pairs. */
static inline int64_t hld_dist(const rec_t *ru, const rec_t *rv, int *err) {
    const hld_rec_t *lu = (const hld_rec_t *)ru, *lv = (const hld_rec_t *)rv;
    const uint64_t *iu = HLD_IDS(lu), *iv = HLD_IDS(lv);
    uint64_t n = lu->count < lv->count ? lu->count : lv->count;
    uint64_t t = 0;
    uint64_t eu, ev, nca;
    while (t < n && iu[t] == iv[t]) t++;
    /* Python compares the ids as zero-padded packed words, so past the
     * shorter label a zero id in the longer one (never encoded below level
     * 0, so only in corrupt input) would still match: leave that to it */
    if (t == 0 || (t == n && lu->count != lv->count &&
                   (lu->count > n ? iu : iv)[n] == 0)) {
        *err = 1;
        return 0;
    }
    eu = HLD_EXITS(lu)[t - 1];
    ev = HLD_EXITS(lv)[t - 1];
    nca = eu < ev ? eu : ev;
    return (int64_t)(lu->root_distance + lv->root_distance) - 2 * (int64_t)nca;
}

/* Lemma 3.1 query: critical level from the light codes, dominating side
 * from the postorder domination numbers, entry reconstructed from the
 * dominating side's truncated bits plus the dominated side's accumulator. */
static inline int64_t fr_dist(const dec_t *d, const rec_t *ru,
                              const rec_t *rv, int *err) {
    const fr_rec_t *lu = (const fr_rec_t *)ru, *lv = (const fr_rec_t *)rv;
    const fr_rec_t *dom, *sub;
    const fr_lvl_t *cu = FR_LEVELS(lu), *cv = FR_LEVELS(lv), *at, *sub_at;
    uint32_t n, level;
    uint64_t value, pushed;
    if (lu->node_id == lv->node_id) return 0;
    n = lu->depth < lv->depth ? lu->depth : lv->depth;
    level = 0;
    while (level < n && cu[level].cw == cv[level].cw) level++;
    if (lu->domination < lv->domination) {
        dom = lu;
        sub = lv;
    } else {
        dom = lv;
        sub = lu;
    }
    if (level >= dom->depth || level >= sub->depth) goto bad;
    at = &FR_LEVELS(dom)[level];
    sub_at = &FR_LEVELS(sub)[level];
    if (at->kept & FR_SKIP) goto bad;
    value = at->kept & FR_VALUE_MASK;
    pushed = FR_PUSHED(at);
    if (pushed) {
        uint64_t start = at->acc_len;
        uint64_t acc = sub->label_start + sub_at->acc_off;
        uint64_t segment;
        br_t r;
        if (start + pushed > sub_at->acc_len) goto bad;
        br_init(&r, d->payload, d->nbytes, acc + start, acc + sub_at->acc_len);
        if (br_read(&r, (uint32_t)pushed, &segment)) goto bad;
        value = (value << pushed) | segment;
    }
    if (at->kept & FR_BAD_REF) goto bad;
    return (int64_t)(lu->root_distance + lv->root_distance) -
           2 * (at->base + (int64_t)value);
bad:
    *err = 1;
    return 0;
}

static inline int64_t dist(const dec_t *d, const rec_t *u, const rec_t *v,
                           int *err) {
    return d->kind == KIND_HLD ? hld_dist(u, v, err) : fr_dist(d, u, v, err);
}

/* -- the arena ------------------------------------------------------------ */

/* Arena records are carved from chunks mapped straight from the system.
 * FIFO eviction empties the oldest chunk first; one emptied chunk is kept
 * for the next allocation and any other is unmapped, so a steady arena
 * maps nothing new, and evicted labels and a freed arena hand their memory
 * back instead of leaving holes in the heap. */
#define CHUNK_BYTES ((size_t)64 * 1024)

typedef struct chunk {
    struct chunk *next; /* the next newer chunk */
    size_t size;        /* bytes mapped */
    size_t used;        /* bytes handed out, this header included */
    uint64_t live;      /* records not yet released */
} chunk_t;

typedef struct repro_arena {
    dec_t dec;
    int64_t budget;         /* resident labels kept after each batch */
    rec_t **slot;           /* per node: its resident record or NULL */
    rec_t *head, *tail;     /* resident records, oldest first */
    chunk_t *oldest, *newest;
    chunk_t *spare; /* an emptied chunk, reused before mapping another */
    uint64_t resident;
    uint64_t bytes; /* record bytes of the resident labels */
    uint64_t hits, misses, decodes, epoch;
    pthread_mutex_t lock;
} repro_arena;

repro_arena *repro_arena_new(int kind, const uint8_t *payload, uint64_t nbytes,
                             const uint64_t *offs, const uint64_t *lens,
                             int64_t n_total, int64_t budget) {
    repro_arena *a;
    if ((kind != KIND_HLD && kind != KIND_FREEDMAN) || n_total < 0 ||
        n_total >= ((int64_t)1 << 31) || budget < 1)
        return NULL;
    a = (repro_arena *)calloc(1, sizeof(*a));
    if (!a) return NULL;
    a->slot = (rec_t **)calloc(n_total ? (size_t)n_total : 1, sizeof(rec_t *));
    if (!a->slot || pthread_mutex_init(&a->lock, NULL)) {
        free(a->slot);
        free(a);
        return NULL;
    }
    dec_init(&a->dec, kind, payload, nbytes, offs, lens, n_total);
    a->budget = budget;
    return a;
}

void repro_arena_free(repro_arena *a) {
    chunk_t *c, *next;
    if (!a) return;
    for (c = a->oldest; c; c = next) {
        next = c->next;
        munmap(c, c->size);
    }
    if (a->spare) munmap(a->spare, a->spare->size);
    dec_free(&a->dec);
    free(a->slot);
    pthread_mutex_destroy(&a->lock);
    free(a);
}

/* Room for the last decoded label in the newest chunk, or NULL. */
static rec_t *arena_alloc(repro_arena *a) {
    size_t bytes = (packed_size(&a->dec) + 7) & ~(size_t)7;
    chunk_t *c = a->newest;
    rec_t *rec;
    if (!c || c->size - c->used < bytes) {
        size_t size = sizeof(chunk_t) + bytes;
        if (size < CHUNK_BYTES) size = CHUNK_BYTES;
        if (a->spare && a->spare->size >= size) {
            c = a->spare;
            a->spare = NULL;
        } else {
            void *mem = mmap(NULL, size, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (mem == MAP_FAILED) return NULL;
            c = (chunk_t *)mem;
            c->size = size;
        }
        c->next = NULL;
        c->used = sizeof(chunk_t);
        c->live = 0;
        if (a->newest)
            a->newest->next = c;
        else
            a->oldest = c;
        a->newest = c;
    }
    rec = (rec_t *)((char *)c + c->used);
    c->used += bytes;
    c->live++;
    rec->chunk = c;
    return rec;
}

/* Forget a resident record; unmap the chunks this leaves empty. */
static void arena_release(repro_arena *a, rec_t *rec) {
    chunk_t *c = rec->chunk;
    a->slot[rec->node] = NULL;
    a->resident--;
    a->bytes -= rec->bytes;
    if (--c->live) return;
    while (a->oldest != a->newest && a->oldest->live == 0) {
        chunk_t *empty = a->oldest;
        a->oldest = empty->next;
        if (!a->spare && empty->size == CHUNK_BYTES)
            a->spare = empty;
        else
            munmap(empty, empty->size);
    }
}

/* Drop the resident records after ``keep`` (NULL: all of them). */
static void arena_drop_after(repro_arena *a, rec_t *keep) {
    rec_t *rec = keep ? keep->next : a->head;
    a->tail = keep;
    if (keep)
        keep->next = NULL;
    else
        a->head = NULL;
    while (rec) {
        rec_t *next = rec->next;
        arena_release(a, rec);
        rec = next;
    }
}

static void arena_trim(repro_arena *a) {
    while (a->resident > (uint64_t)a->budget) {
        rec_t *oldest = a->head;
        a->head = oldest->next;
        if (!a->head) a->tail = NULL;
        arena_release(a, oldest);
    }
}

static int cmp_i64(const void *x, const void *y) {
    int64_t a = *(const int64_t *)x, b = *(const int64_t *)y;
    return (a > b) - (a < b);
}

/* Count a batch that admits nothing: each distinct endpoint is a hit when
 * resident, else a miss (out-of-range endpoints included), as Python
 * counts a batch whose parse raises. */
static void arena_count_only(repro_arena *a, const int64_t *pairs,
                             int64_t n_pairs) {
    size_t total = 2 * (size_t)n_pairs, i;
    int64_t *sorted = (int64_t *)malloc(total * sizeof(int64_t));
    if (!sorted) return;
    memcpy(sorted, pairs, total * sizeof(int64_t));
    qsort(sorted, total, sizeof(int64_t), cmp_i64);
    for (i = 0; i < total; i++) {
        int64_t node = sorted[i];
        if (i && node == sorted[i - 1]) continue;
        if (node >= 0 && node < a->dec.n_total && a->slot[node])
            a->hits++;
        else
            a->misses++;
    }
    free(sorted);
}

/* Answer ``n_pairs`` flat (u, v) pairs into ``out``.  Returns 1 — admitting
 * nothing — when an endpoint is out of range or fails to decode, and 1 —
 * keeping the admitted labels — when a pair's distance is not computable
 * here; the caller then answers (or raises) on the Python path.  The
 * buffers are untyped so Python can pass ``bytes`` without a cast; they
 * hold native, 8-byte-aligned int64 values. */
int repro_arena_batch(repro_arena *a, const void *pair_buf, int64_t n_pairs,
                      void *out_buf) {
    const int64_t *pairs = (const int64_t *)pair_buf;
    int64_t *out = (int64_t *)out_buf;
    rec_t *saved_tail;
    uint64_t saved_hits, saved_misses, epoch;
    int64_t p;
    int half, err = 0;
    if (n_pairs <= 0) return E_FALLBACK;
    pthread_mutex_lock(&a->lock);
    saved_tail = a->tail;
    saved_hits = a->hits;
    saved_misses = a->misses;
    epoch = ++a->epoch;
    /* first endpoints, then second endpoints: Python's ``us + vs`` order */
    for (half = 0; half < 2; half++) {
        for (p = 0; p < n_pairs; p++) {
            int64_t node = pairs[2 * p + half];
            rec_t *rec;
            if (node < 0 || node >= a->dec.n_total) goto admit_nothing;
            rec = a->slot[node];
            if (rec) {
                if (rec->stamp != epoch) {
                    rec->stamp = epoch;
                    a->hits++;
                }
                continue;
            }
            if (decode(&a->dec, node)) goto admit_nothing;
            rec = arena_alloc(a);
            if (!rec) goto admit_nothing;
            pack(&a->dec, node, rec);
            a->decodes++;
            rec->next = NULL;
            rec->stamp = epoch;
            rec->node = node;
            if (a->tail)
                a->tail->next = rec;
            else
                a->head = rec;
            a->tail = rec;
            a->slot[node] = rec;
            a->resident++;
            a->bytes += rec->bytes;
            a->misses++;
        }
    }
    for (p = 0; p < n_pairs && !err; p++)
        out[p] = dist(&a->dec, a->slot[pairs[2 * p]], a->slot[pairs[2 * p + 1]],
                      &err);
    arena_trim(a);
    pthread_mutex_unlock(&a->lock);
    return err ? E_FALLBACK : E_OK;
admit_nothing:
    arena_drop_after(a, saved_tail);
    a->hits = saved_hits;
    a->misses = saved_misses;
    arena_count_only(a, pairs, n_pairs);
    pthread_mutex_unlock(&a->lock);
    return E_FALLBACK;
}

/* One pair: a batch of one, returning its answer, or INT64_MIN when the
 * batch declines (every answer is below 2^59 in magnitude: both root
 * distances and the nearest-common-ancestor term stay under 2^57). */
int64_t repro_arena_pair(repro_arena *a, int64_t u, int64_t v) {
    int64_t pair[2], out;
    pair[0] = u;
    pair[1] = v;
    return repro_arena_batch(a, pair, 1, &out) ? INT64_MIN : out;
}

/* hits, misses, resident labels, resident bytes, lifetime decodes */
void repro_arena_stats(repro_arena *a, uint64_t *out) {
    pthread_mutex_lock(&a->lock);
    out[0] = a->hits;
    out[1] = a->misses;
    out[2] = a->resident;
    out[3] = a->bytes;
    out[4] = a->decodes;
    pthread_mutex_unlock(&a->lock);
}

/* -- transient decodes: matrices and checksums ---------------------------- */

static void free_recs(rec_t **recs, int64_t count) {
    int64_t i;
    for (i = 0; i < count; i++) free(recs[i]);
    free(recs);
}

/* Decode ``nodes`` into privately allocated records (NULL on any failure). */
static rec_t **decode_many(dec_t *d, const int64_t *nodes, int64_t n_nodes) {
    rec_t **recs;
    int64_t i;
    if (n_nodes <= 0) return NULL;
    recs = (rec_t **)calloc((size_t)n_nodes, sizeof(rec_t *));
    if (!recs) return NULL;
    for (i = 0; i < n_nodes; i++) {
        if (decode(d, nodes[i]) || !(recs[i] = (rec_t *)malloc(packed_size(d)))) {
            free_recs(recs, i);
            return NULL;
        }
        pack(d, nodes[i], recs[i]);
    }
    return recs;
}

int repro_matrix(int kind, const uint8_t *payload, uint64_t nbytes,
                 const uint64_t *offs, const uint64_t *lens, int64_t n_total,
                 const int64_t *nodes, int64_t n_nodes, int64_t *out) {
    dec_t d;
    rec_t **recs;
    int64_t i, j;
    int err = 0;
    dec_init(&d, kind, payload, nbytes, offs, lens, n_total);
    recs = decode_many(&d, nodes, n_nodes);
    if (!recs) {
        dec_free(&d);
        return E_FALLBACK;
    }
    for (i = 0; i < n_nodes && !err; i++) {
        out[i * n_nodes + i] = dist(&d, recs[i], recs[i], &err);
        for (j = i + 1; j < n_nodes && !err; j++) {
            int64_t value = dist(&d, recs[i], recs[j], &err);
            out[i * n_nodes + j] = value;
            out[j * n_nodes + i] = value;
        }
    }
    free_recs(recs, n_nodes);
    dec_free(&d);
    return err ? E_FALLBACK : E_OK;
}

#define FOLD(h, x) ((h) = ((h) ^ (uint64_t)(x)) * 1099511628211ull)

/* The low 64 bits of the ``len``-bit field ending at bit ``end``. */
static int low_bits(const dec_t *d, uint64_t end, uint64_t len, uint64_t *out) {
    br_t r;
    uint64_t high;
    if (len < 64) {
        br_init(&r, d->payload, d->nbytes, end - len, end);
        return br_read(&r, (uint32_t)len, out);
    }
    br_init(&r, d->payload, d->nbytes, end - 64, end);
    if (br_read(&r, 32, &high) || br_read(&r, 32, out)) return E_FALLBACK;
    *out |= high << 32;
    return E_OK;
}

/* FNV-1a-style fold over every decoded field of ``nodes``, in order — the
 * Python tiers compute the identical fold over parse_many labels, so equal
 * checksums certify the decoders agree on every field of every label.
 * Freedman accumulators are folded as (length, low 64 value bits). */
int repro_checksum(int kind, const uint8_t *payload, uint64_t nbytes,
                   const uint64_t *offs, const uint64_t *lens, int64_t n_total,
                   const int64_t *nodes, int64_t n_nodes, uint64_t *out) {
    dec_t d;
    uint64_t h = 1469598103934665603ull;
    int64_t s;
    int rc = E_OK;
    if (n_nodes <= 0) return E_FALLBACK;
    dec_init(&d, kind, payload, nbytes, offs, lens, n_total);
    for (s = 0; s < n_nodes && rc == E_OK; s++) {
        uint64_t i;
        if (decode(&d, nodes[s])) {
            rc = E_FALLBACK;
            break;
        }
        if (kind == KIND_HLD) {
            FOLD(h, d.root_distance);
            FOLD(h, d.depth);
            for (i = 0; i < d.depth; i++) {
                FOLD(h, d.ids.data[i]);
                FOLD(h, d.exits.data[i]);
            }
            continue;
        }
        FOLD(h, d.node_id);
        FOLD(h, d.root_distance);
        FOLD(h, d.domination);
        FOLD(h, d.depth);
        for (i = 0; i < d.depth; i++) {
            const fr_level_t *lv = &d.levels[i];
            FOLD(h, lv->cw_len);
            FOLD(h, lv->cw_val);
            FOLD(h, lv->lw);
            FOLD(h, lv->skip);
            FOLD(h, lv->kept_len);
            FOLD(h, lv->kept_val);
            FOLD(h, lv->pushed);
        }
        for (i = 0; i < d.frag_ref_count; i++) FOLD(h, d.frag_refs.data[i]);
        for (i = 0; i < d.frag_dist_count; i++) FOLD(h, d.frag_dists.data[i]);
        for (i = 0; i < d.depth && rc == E_OK; i++) {
            uint64_t len = d.levels[i].acc_len, low = 0;
            if (len && low_bits(&d, d.levels[i].acc_off + len, len, &low))
                rc = E_FALLBACK;
            FOLD(h, len);
            FOLD(h, low);
        }
    }
    dec_free(&d);
    if (rc == E_OK) *out = h;
    return rc;
}

/* -- the Freedman encoder -------------------------------------------------- */

/* The Section 2/3 chain of ``FreedmanScheme``'s Python encoder, from the
 * tree's rows to every label's bits: ``repro_fr_encoder_new`` computes the
 * shared structure once, ``repro_fr_encoder_next`` writes whole labels into
 * a caller's bounded buffer.  Each pass mirrors one Python pass exactly —
 * the same node and path numbering, the same sibling order, the same
 * ``log2``/``ceil`` arithmetic — so the bytes are the Python encoder's,
 * which the differential tests and the sha256 pins hold it to.  Unlike the
 * decoders it has no fallback: it encodes every tree ``RootedTree``
 * accepts, and only an allocation failure stops it. */

#define FR_BINARIZE 1
#define FR_FRAGMENTS 2
#define FR_ACCUMULATORS 4

/* a hanging subtree is thin when it is at most 1/256 of its branch node's
 * subtree (``repro.core.freedman.THIN_FACTOR``) */
#define THIN_FACTOR 256

/* a light child holds under half its path head's subtree, so a collapsed
 * root path is shorter than log2 of the (int32) node count */
#define FR_MAX_DEPTH 64

static inline uint32_t bitlen64(uint64_t x) {
    return x ? 64 - (uint32_t)__builtin_clzll(x) : 0;
}

/* -- bit writer ------------------------------------------------------------- */

/* An MSB-first writer into a growable buffer.  Pending bits sit MSB-aligned
 * in ``acc`` (fewer than 32 between writes) and leave four bytes at a time;
 * ``bw_reserve`` makes room beforehand, so the writes never check. */
typedef struct {
    uint8_t *buf;
    size_t cap;
    size_t pos; /* bytes flushed */
    uint64_t acc;
    uint32_t fill;
} bw_t;

static int bw_reserve(bw_t *w, uint64_t bits) {
    size_t need = w->pos + (size_t)(bits >> 3) + 16;
    size_t cap;
    uint8_t *grown;
    if (need <= w->cap) return E_OK;
    cap = w->cap ? w->cap : 256;
    while (cap < need) cap *= 2;
    grown = (uint8_t *)realloc(w->buf, cap);
    if (!grown) return E_FALLBACK;
    w->buf = grown;
    w->cap = cap;
    return E_OK;
}

static inline uint64_t bw_bits(const bw_t *w) { return (uint64_t)w->pos * 8 + w->fill; }

/* Append the low ``n <= 32`` bits of ``v`` (``v < 2^n``). */
static inline void bw_put(bw_t *w, uint64_t v, uint32_t n) {
    if (!n) return;
    w->acc |= v << (64 - w->fill - n);
    w->fill += n;
    if (w->fill >= 32) {
        uint8_t *out = w->buf + w->pos;
        out[0] = (uint8_t)(w->acc >> 56);
        out[1] = (uint8_t)(w->acc >> 48);
        out[2] = (uint8_t)(w->acc >> 40);
        out[3] = (uint8_t)(w->acc >> 32);
        w->pos += 4;
        w->acc <<= 32;
        w->fill -= 32;
    }
}

static inline void bw_put64(bw_t *w, uint64_t v, uint32_t n) {
    if (n > 32) {
        bw_put(w, v >> 32, n - 32);
        v &= 0xFFFFFFFFull;
        n = 32;
    }
    bw_put(w, v, n);
}

static inline void bw_zeros(bw_t *w, uint64_t n) {
    for (; n > 32; n -= 32) bw_put(w, 0, 32);
    bw_put(w, 0, (uint32_t)n);
}

/* The width of gamma(x): ``x + 1`` in ``2 * bitlen - 1`` bits. */
static inline uint32_t gamma_bits(uint64_t x) { return 2 * bitlen64(x + 1) - 1; }

/* Elias gamma of ``x < 2^64 - 1``: ``x + 1`` in ``2 * bitlen - 1`` bits. */
static inline void bw_gamma(bw_t *w, uint64_t x) {
    uint64_t y = x + 1;
    uint32_t b = bitlen64(y);
    if (b <= 16) {
        bw_put(w, y, 2 * b - 1);
        return;
    }
    bw_zeros(w, b - 1);
    bw_put64(w, y, b);
}

/* Elias delta of ``x < 2^64 - 1``: gamma(width), then the ``width`` bits of
 * ``x + 1`` below its leading one. */
static inline void bw_delta(bw_t *w, uint64_t x) {
    uint64_t y = x + 1;
    uint32_t width = bitlen64(y) - 1;
    bw_gamma(w, width);
    bw_put64(w, y ^ (1ull << width), width);
}

/* Lemma 2.2 monotone sequence (``repro.encoding.bitio.append_monotone``):
 * gamma count, gamma low width, the low parts, the high parts as unary
 * differences.  The encoder's sequences are non-decreasing by construction. */
static void bw_monotone(bw_t *w, const uint64_t *values, uint64_t count) {
    uint64_t i, high = 0, mask;
    uint32_t low_width = 0;
    bw_gamma(w, count);
    if (!count) return;
    if (bitlen64(values[count - 1]) > bitlen64(count))
        low_width = bitlen64(values[count - 1]) - bitlen64(count);
    bw_gamma(w, low_width);
    mask = (1ull << low_width) - 1; /* values are below 2^63 */
    if (low_width)
        for (i = 0; i < count; i++) bw_put64(w, values[i] & mask, low_width);
    for (i = 0; i < count; i++) {
        uint64_t part = values[i] >> low_width, gap = part - high;
        if (gap < 32) {
            bw_put(w, 1, (uint32_t)gap + 1);
        } else {
            bw_zeros(w, gap);
            bw_put(w, 1, 1);
        }
        high = part;
    }
}

/* Write out the pending bits, zero-padded to a whole byte. */
static void bw_flush(bw_t *w) {
    while (w->fill) {
        w->buf[w->pos++] = (uint8_t)(w->acc >> 56);
        w->acc <<= 8;
        w->fill = w->fill > 8 ? w->fill - 8 : 0;
    }
    w->acc = 0;
}

/* The ``1 <= n <= 32`` bits at bit ``off`` of a flushed buffer that has 8
 * readable bytes past its last bit. */
static inline uint64_t bits_at(const uint8_t *buf, uint64_t off, uint32_t n) {
    uint64_t word;
    memcpy(&word, buf + (off >> 3), 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    word = __builtin_bswap64(word);
#endif
    return (word << (off & 7)) >> (64 - n);
}

/* -- precompute -------------------------------------------------------------- */

/* One collapsed path, with everything a label reads at its level.  The
 * last precompute pass folds a level's codeword and entry into the words a
 * label writes for them, so ``fr_render`` writes each with one put:
 *
 * - ``code`` becomes gamma(code_len) then the codeword, and ``code_len``
 *   that word's width (at most 11 + 32 bits);
 * - ``kept`` becomes 0, gamma(kept_len), the kept bits, gamma(pushed) —
 *   or the skip bit, 1 — and ``entry_len`` its width.  An entry wider than
 *   64 bits (root-distance gaps of about 2^51 and up, which only weighted
 *   trees reach) keeps its fields, with ``entry_len`` 0. */
typedef struct {
    uint64_t code;      /* light codeword of the edge into the path, then
                           its level word */
    uint64_t weight;    /* weight of that light edge */
    int64_t head_dist;  /* root distance of the head */
    uint64_t kept;      /* the entry's kept bits (its full value until the
                           entries pass, its level word after the fold) */
    uint64_t acc_off;   /* bit offset of the parent's accumulator */
    uint64_t prefix;    /* accumulator bits pushed before this path's turn */
    int32_t parent;     /* parent path, -1 for the root path */
    int32_t dom;        /* postorder (domination) number */
    uint8_t code_len, kept_len, pushed, entry_len, frag_ref, depth;
} fr_path_t;

typedef struct repro_fr_encoder {
    int64_t n;
    int64_t next;      /* the next original node to emit */
    int pending;       /* node ``next``'s label is rendered in ``label`` */
    int32_t *own;      /* per original node: its pendant leaf's path */
    int64_t *dist;     /* per original node: its root distance */
    fr_path_t *path;
    bw_t acc;          /* every parent path's accumulator, flushed */
    bw_t label;        /* the rendered label, flushed */
    uint64_t label_bits;
} repro_fr_encoder;

void repro_fr_encoder_free(repro_fr_encoder *e) {
    if (!e) return;
    free(e->own);
    free(e->dist);
    free(e->path);
    free(e->acc.buf);
    free(e->label.buf);
    free(e);
}

/* A sibling and its order key: branch position on the parent path, then
 * head size; ties by id. */
typedef struct {
    uint64_t key;
    int32_t id;
} fr_keyed_t;

static int cmp_keyed(const void *x, const void *y) {
    const fr_keyed_t *a = (const fr_keyed_t *)x, *b = (const fr_keyed_t *)y;
    if (a->key != b->key) return a->key < b->key ? -1 : 1;
    return (a->id > b->id) - (a->id < b->id);
}

/* CSR children of a parent row (-1: none), ascending by id.  ``start`` has
 * ``count + 2`` slots; afterwards ``p``'s children are
 * ``data[start[p] .. start[p + 1])``. */
static void csr_children(const int32_t *parent, int64_t count, int32_t *start,
                         int32_t *data) {
    int64_t v;
    memset(start, 0, (size_t)(count + 2) * sizeof(int32_t));
    for (v = 0; v < count; v++)
        if (parent[v] >= 0) start[parent[v] + 2]++;
    for (v = 2; v < count + 2; v++) start[v] += start[v - 1];
    for (v = 0; v < count; v++)
        if (parent[v] >= 0) data[start[parent[v] + 1]++] = (int32_t)v;
}

#define FR_ALLOC(ptr, count)                                                  \
    do {                                                                      \
        (ptr) = malloc(((size_t)(count) ? (size_t)(count) : 1) * sizeof(*(ptr))); \
        if (!(ptr)) goto done;                                                \
    } while (0)

/* The encoder of an ``n``-node ``RootedTree`` given by its rows, or NULL
 * when memory runs out.  ``stats`` receives the pushed bits and the fat,
 * thin and skipped subtree counts. */
repro_fr_encoder *repro_fr_encoder_new(int64_t n, const int32_t *parents,
                                       const int64_t *weights,
                                       const int32_t *child_start,
                                       const int32_t *child_data, int flags,
                                       uint64_t *stats) {
    repro_fr_encoder *e;
    int32_t *par = NULL, *start = NULL, *data = NULL, *order = NULL;
    int32_t *size = NULL, *path_of = NULL, *position = NULL, *head = NULL;
    int32_t *length = NULL, *stack = NULL, *row = NULL;
    uint8_t *light_depth = NULL;
    int64_t *weight = NULL, *dist = NULL, *last_boundary = NULL;
    fr_keyed_t *keyed = NULL;
    fr_path_t *path = NULL;
    int64_t total = 2 * n, v, i, paths = 0, block;
    int32_t root = -1;
    uint64_t pushed_total = 0, fat = 0, thin = 0, skipped = 0;
    int ok = 0;

    if (n < 1) return NULL;
    if (flags & FR_BINARIZE)
        for (v = 0; v < n; v++) {
            int64_t degree = child_start[v + 1] - child_start[v];
            if (degree > 1) total += degree - 1;
        }
    if (total > INT32_MAX - 2) return NULL;
    e = (repro_fr_encoder *)calloc(1, sizeof(*e));
    if (!e) return NULL;
    e->n = n;

    /* Section 2 transform (``prepare_for_leaf_queries``): pendant leaf
     * n + v hangs last under v, at weight 0; with binarization a node with
     * m + 1 > 2 children keeps its first and hangs the others, one each, on
     * a chain of m - 1 dummies, numbered in node order after the leaves */
    FR_ALLOC(par, total);
    FR_ALLOC(weight, total);
    memcpy(par, parents, (size_t)n * sizeof(int32_t));
    memcpy(weight, weights, (size_t)n * sizeof(int64_t));
    memset(weight + n, 0, (size_t)(total - n) * sizeof(int64_t));
    for (v = 0; v < n; v++) {
        par[n + v] = (int32_t)v;
        if (parents[v] < 0) root = (int32_t)v;
    }
    if (flags & FR_BINARIZE) {
        int32_t next = (int32_t)(2 * n);
        for (v = 0; v < n; v++) {
            int32_t first = child_start[v], end = child_start[v + 1], last, k;
            if (end - first < 2) continue;
            last = next + (end - first) - 2;
            par[next] = (int32_t)v;
            for (k = next + 1; k <= last; k++) par[k] = k - 1;
            for (k = first + 1; k < end; k++) par[child_data[k]] = next + (k - first - 1);
            par[n + v] = last;
            next = last + 1;
        }
    }

    /* the working tree: children ascending by id, a breadth-first order,
     * root distances and subtree sizes */
    FR_ALLOC(start, total + 2);
    FR_ALLOC(data, total);
    csr_children(par, total, start, data);
    FR_ALLOC(order, total);
    FR_ALLOC(dist, total);
    order[0] = root;
    dist[root] = 0;
    {
        int64_t tail = 1;
        for (i = 0; i < tail; i++) {
            int32_t node = order[i], k;
            for (k = start[node]; k < start[node + 1]; k++) {
                dist[data[k]] = dist[node] + weight[data[k]];
                order[tail++] = data[k];
            }
        }
    }
    FR_ALLOC(size, total);
    for (v = 0; v < total; v++) size[v] = 1;
    for (i = total - 1; i > 0; i--) size[par[order[i]]] += size[order[i]];
    free(order);
    order = NULL;

    /* paper-variant heavy paths (``HeavyPathDecomposition._decompose``): a
     * path descends to the first child holding half its head's subtree;
     * paths are numbered as their heads leave a stack that receives each
     * path's light children in child order, head first */
    FR_ALLOC(path_of, total);
    FR_ALLOC(position, total);
    FR_ALLOC(head, total);
    FR_ALLOC(length, total);
    FR_ALLOC(light_depth, total);
    FR_ALLOC(stack, total);
    {
        int64_t top = 0;
        stack[top++] = root;
        while (top) {
            int32_t node = stack[--top], offset = 0;
            int64_t threshold = size[node];
            light_depth[paths] =
                par[node] >= 0 ? (uint8_t)(light_depth[path_of[par[node]]] + 1) : 0;
            head[paths] = node;
            for (;;) {
                int32_t heavy = -1, k;
                path_of[node] = (int32_t)paths;
                position[node] = offset;
                for (k = start[node]; k < start[node + 1]; k++) {
                    int32_t child = data[k];
                    if (heavy < 0 && 2 * (int64_t)size[child] >= threshold)
                        heavy = child;
                    else
                        stack[top++] = child;
                }
                if (heavy < 0) break;
                node = heavy;
                offset++;
            }
            length[paths++] = offset + 1;
        }
    }
    free(stack);
    stack = NULL;
    path = (fr_path_t *)calloc((size_t)paths, sizeof(fr_path_t));
    if (!path) goto done;
    e->path = path;
    FR_ALLOC(row, paths);
    for (i = 0; i < paths; i++) {
        int32_t h = head[i];
        path[i].depth = light_depth[i];
        path[i].parent = row[i] = par[h] >= 0 ? path_of[par[h]] : -1;
        path[i].weight = (uint64_t)weight[h];
        path[i].head_dist = dist[h];
    }
    free(weight);
    weight = NULL;
    free(light_depth);
    light_depth = NULL;

    /* the collapsed tree (``CollapsedTree._build``): siblings ordered by
     * branch position on the parent path, then head size, ties by id; the
     * working tree's CSR rows are reused for its children */
    csr_children(row, paths, start, data);
    FR_ALLOC(keyed, paths);
    for (i = 0; i < paths; i++) {
        int32_t first = start[i], end = start[i + 1], k;
        if (end - first < 2) continue;
        for (k = first; k < end; k++) {
            int32_t h = head[data[k]];
            keyed[k].key = (uint64_t)position[par[h]] << 32 | (uint64_t)size[h];
            keyed[k].id = data[k];
        }
        qsort(keyed + first, (size_t)(end - first), sizeof(*keyed), cmp_keyed);
        for (k = first; k < end; k++) data[k] = keyed[k].id;
    }
    free(keyed);
    keyed = NULL;
    free(position);
    position = NULL;

    /* domination numbers: the postorder over the ordered children; ``row``
     * becomes each open path's next child */
    {
        int64_t top = 0;
        int32_t counter = 0;
        FR_ALLOC(stack, paths);
        stack[top++] = 0;
        row[0] = start[0];
        while (top) {
            int32_t p = stack[top - 1];
            if (row[p] < start[p + 1]) {
                int32_t child = data[row[p]++];
                row[child] = start[child];
                stack[top++] = child;
            } else {
                path[p].dom = counter++;
                top--;
            }
        }
    }

    /* light codes (``LightDepthLabeling._build_codes``): a child weighted
     * by its head's subtree out of the parent's head subtree minus the
     * parent path gets ``bitlen(max(1, ceil(total / w) - 1)) + 1`` bits;
     * canonical values by increasing length, ties in child order */
    for (i = 0; i < paths; i++) {
        int32_t first = start[i], end = start[i + 1], k;
        int64_t whole = size[head[i]] - length[i];
        uint64_t present = 0, next = 0;
        uint32_t len, previous = 0;
        for (k = first; k < end; k++) {
            int64_t w = size[head[data[k]]];
            int64_t quotient = (whole + w - 1) / w - 1;
            len = bitlen64((uint64_t)(quotient > 1 ? quotient : 1)) + 1;
            path[data[k]].code_len = (uint8_t)len;
            present |= 1ull << len;
        }
        while (present) {
            len = (uint32_t)__builtin_ctzll(present);
            present &= present - 1;
            for (k = first; k < end; k++) {
                fr_path_t *child = &path[data[k]];
                if (child->code_len != len) continue;
                child->code = next << (len - previous);
                next = child->code + 1;
                previous = len;
            }
        }
    }

    /* fragment boundaries (``_compute_fragments``): a path's are its
     * parent's, extended by its own head distance while its head subtree
     * is small enough; ``row`` holds each path's boundary count and
     * ``last_boundary`` its last boundary; a parent's id is below its
     * children's, so id order is top-down */
    {
        double lg = log2((double)(total > 2 ? total : 2));
        block = (int64_t)ceil(sqrt(lg > 1.0 ? lg : 1.0));
        if (block < 1) block = 1;
    }
    FR_ALLOC(last_boundary, paths);
    row[0] = 1;
    last_boundary[0] = path[0].head_dist;
    for (i = 1; i < paths; i++) {
        int32_t parent = path[i].parent, count = row[parent];
        if (flags & FR_FRAGMENTS) {
            int64_t hanging = size[head[i]];
            while (count * block < 63 && hanging <= (total >> (count * block))) count++;
        }
        path[i].frag_ref = (uint8_t)(count - 1);
        if (count == row[parent]) {
            path[i].kept = (uint64_t)(path[i].head_dist - last_boundary[parent]);
            last_boundary[i] = last_boundary[parent];
        } else {
            path[i].kept = 0; /* the head is its own last boundary */
            last_boundary[i] = path[i].head_dist;
        }
        row[i] = count;
    }

    /* entries and accumulators (``_compute_entries``): per parent path, each
     * child but the last keeps its entry's top bits and pushes the rest
     * onto the parent's accumulator; the last (exceptional) one is skipped */
    for (i = 0; i < paths; i++) {
        int32_t first = start[i], end = start[i + 1], k;
        uint64_t offset = bw_bits(&e->acc), accumulated = 0;
        if (first == end) continue;
        for (k = first; k < end; k++) {
            fr_path_t *child = &path[data[k]];
            int32_t h = head[data[k]];
            int64_t hanging = size[h], branch = size[par[h]];
            uint64_t value = child->kept;
            uint32_t full = bitlen64(value), kept = full;
            child->acc_off = offset;
            child->prefix = accumulated;
            if (k == end - 1) {
                child->kept = 1; /* the skip bit, already its word */
                child->entry_len = 1;
                skipped++;
                break;
            }
            if (hanging * THIN_FACTOR <= branch) {
                thin++;
            } else if (flags & FR_ACCUMULATORS) {
                double slack = 0.5 * log2((double)branch / (double)hanging) *
                               log2((double)(branch > 2 ? branch : 2));
                int64_t limit = (int64_t)ceil(slack) + 1;
                fat++;
                if ((int64_t)full > limit) kept = (uint32_t)limit;
            }
            child->kept_len = (uint8_t)kept;
            child->pushed = (uint8_t)(full - kept);
            child->kept = value >> child->pushed;
            if (child->pushed) {
                if (bw_reserve(&e->acc, 64)) goto done;
                bw_put64(&e->acc, value & ((1ull << child->pushed) - 1), child->pushed);
                accumulated += child->pushed;
                pushed_total += child->pushed;
            }
        }
    }
    bw_flush(&e->acc);
    if (bw_reserve(&e->acc, 64)) goto done;
    memset(e->acc.buf + e->acc.pos, 0, 8);

    /* the level words (see ``fr_path_t``); the root path is no level */
    for (i = 1; i < paths; i++) {
        fr_path_t *q = &path[i];
        uint32_t kept_gamma = gamma_bits(q->kept_len), pushed_gamma = gamma_bits(q->pushed);
        uint32_t width = 1 + kept_gamma + q->kept_len + pushed_gamma;
        q->code |= (uint64_t)(q->code_len + 1) << q->code_len;
        q->code_len = (uint8_t)(gamma_bits(q->code_len) + q->code_len);
        if (q->entry_len || width > 64) continue;
        q->kept = ((uint64_t)(q->kept_len + 1) << q->kept_len | q->kept) << pushed_gamma |
                  (uint64_t)(q->pushed + 1);
        q->entry_len = (uint8_t)width;
    }

    /* per original node: its pendant leaf's path and root distance */
    FR_ALLOC(e->own, n);
    FR_ALLOC(e->dist, n);
    for (v = 0; v < n; v++) {
        e->own[v] = path_of[n + v];
        e->dist[v] = dist[n + v];
    }
    stats[0] = pushed_total;
    stats[1] = fat;
    stats[2] = thin;
    stats[3] = skipped;
    ok = 1;
done:
    free(par);
    free(weight);
    free(start);
    free(data);
    free(order);
    free(dist);
    free(size);
    free(path_of);
    free(position);
    free(head);
    free(length);
    free(light_depth);
    free(stack);
    free(row);
    free(last_boundary);
    free(keyed);
    if (ok) return e;
    repro_fr_encoder_free(e);
    return NULL;
}

/* -- writing labels ------------------------------------------------------------ */

/* Render node ``v``'s label into ``e->label`` in ``FreedmanLabel.write``
 * order: each level's codeword field and entry is one folded word of its
 * path (see ``fr_path_t``), so a level costs one put for each.  1 only when
 * memory runs out. */
static int fr_render(repro_fr_encoder *e, int64_t v) {
    const fr_path_t *path = e->path;
    const fr_path_t *level[FR_MAX_DEPTH];
    uint64_t values[FR_MAX_DEPTH + 1];
    bw_t *w = &e->label;
    int32_t p = e->own[v];
    uint32_t depth = path[p].depth, d;
    uint64_t count, bound = 6000 + 512 * (uint64_t)depth;
    const fr_path_t *own = &path[p];

    if (depth > FR_MAX_DEPTH) return E_FALLBACK;
    for (d = depth; d > 0; d--) {
        level[d - 1] = &path[p];
        bound += path[p].prefix;
        p = path[p].parent;
    }
    w->pos = 0;
    w->acc = 0;
    w->fill = 0;
    if (bw_reserve(w, bound)) return E_FALLBACK;
    bw_delta(w, (uint64_t)v);
    bw_delta(w, (uint64_t)e->dist[v]);
    bw_delta(w, (uint64_t)own->dom);
    bw_gamma(w, depth);
    for (d = 0; d < depth; d++) bw_put64(w, level[d]->code, level[d]->code_len);
    for (d = 0; d < depth; d++) bw_gamma(w, level[d]->weight);
    for (d = 0; d < depth; d++) values[d] = level[d]->frag_ref;
    bw_monotone(w, values, depth);
    /* the fragment distances: the root path's head, then each level's head
     * once per boundary it adds */
    values[0] = (uint64_t)path[0].head_dist;
    count = 1;
    for (d = 0; d < depth; d++)
        while (count < (uint64_t)level[d]->frag_ref + 1) values[count++] = (uint64_t)level[d]->head_dist;
    bw_monotone(w, values, count);
    for (d = 0; d < depth; d++) {
        const fr_path_t *q = level[d];
        if (q->entry_len) {
            bw_put64(w, q->kept, q->entry_len);
            continue;
        }
        bw_put(w, 0, 1); /* an entry wider than one word, field by field */
        bw_gamma(w, q->kept_len);
        bw_put64(w, q->kept, q->kept_len);
        bw_gamma(w, q->pushed);
    }
    for (d = 0; d < depth; d++) {
        uint64_t off = level[d]->acc_off, left = level[d]->prefix;
        bw_gamma(w, left);
        for (; left; ) {
            uint32_t take = left > 32 ? 32 : (uint32_t)left;
            bw_put(w, bits_at(e->acc.buf, off, take), take);
            off += take;
            left -= take;
        }
    }
    e->label_bits = bw_bits(w);
    bw_flush(w);
    return E_OK;
}

/* Write the next whole labels into ``buf`` in the store's payload layout
 * (each label's bits MSB-first, zero-padded to a byte), at most ``cap``
 * bytes and ``max_labels`` labels: a run.  ``bits[i]`` is the i-th label's
 * length in bits and ``ends[i]`` its end, ``base`` plus its end in ``buf``,
 * so with ``base`` the bytes written before, the ends are the store's byte
 * offsets as they stand.  Returns the number written, 0 once every label
 * is out, -1 when memory runs out, and -2 when the next label alone needs
 * more than ``cap`` bytes: ``ends[0]`` then holds its size, and it is
 * written by the next call with room for it. */
int64_t repro_fr_encoder_next(repro_fr_encoder *e, uint8_t *buf, uint64_t cap,
                              uint64_t base, uint64_t *ends, uint64_t *bits,
                              int64_t max_labels) {
    uint64_t used = 0;
    int64_t count = 0;
    while (count < max_labels && e->next < e->n) {
        uint64_t bytes;
        if (!e->pending) {
            if (fr_render(e, e->next)) return -1;
            e->pending = 1;
        }
        bytes = (e->label_bits + 7) >> 3;
        if (bytes > cap - used) {
            if (count) break;
            ends[0] = bytes;
            return -2;
        }
        memcpy(buf + used, e->label.buf, (size_t)bytes);
        used += bytes;
        bits[count] = e->label_bits;
        ends[count++] = base + used;
        e->pending = 0;
        e->next++;
    }
    return count;
}

/* -- RSP/1 hot lane: plain QUERY/RESULT frames as int64 columns ---------- */

/* The serving stack's wire codec for its one hot message shape (see
 * repro.serve.protocol): a QUERY frame with no suffix and a single-value
 * exact RESULT frame.  The scanners split a receive buffer into frames as
 * ``FrameDecoder.frames`` does and turn the longest run of *plain* frames
 * into columns; they never fail on bytes, they only stop, and the frame
 * that stopped them goes through the Python decoder.  The encoders write
 * the same two shapes from columns: the server's RESULT runs and the
 * client's corked QUERY runs.  A plain frame's varints fit in 9 bytes (so
 * below 2^63) and its body holds nothing after the last field. */

#define RSP_OP_QUERY 0x01
#define RSP_OP_RESULT 0x81
#define RSP_MAX_FRAME ((uint64_t)64 * 1024 * 1024)

/* Why a scan stopped (``info[3]``). */
#define SCAN_MORE 0    /* the buffer ends inside (or right after) a frame */
#define SCAN_FRAME 1   /* a frame that is not plain: body [info[4], info[5]) */
#define SCAN_AGAIN 2   /* the run is full, or the next plain frame names
                          another member: scan again from info[0] */
#define SCAN_CORRUPT 3 /* a corrupt length prefix or an oversized frame */

/* The frame at ``pos``: 0 with its body [*body, *end) when complete, 1 when
 * the buffer ends first, 2 when its length prefix is corrupt (more than ten
 * bytes) or over the limit — ``FrameDecoder.frames``'s three outcomes. */
static int rsp_frame(const uint8_t *buf, uint64_t len, uint64_t pos,
                     uint64_t *body, uint64_t *end) {
    uint64_t value = 0;
    int i;
    for (i = 0;; i++) {
        uint8_t byte;
        if (pos + i >= len) return 1; /* fewer than ten bytes: wait */
        byte = buf[pos + i];
        if (i < 9)
            value |= (uint64_t)(byte & 0x7f) << (7 * i);
        else if (byte & 0xff) /* a tenth byte: too long, or >= 2^63 */
            return 2;
        if (!(byte & 0x80)) break;
    }
    if (value > RSP_MAX_FRAME) return 2;
    *body = pos + i + 1;
    if (value > len - *body) return 1;
    *end = *body + value;
    return 0;
}

/* A uvarint of at most 9 bytes inside [*pos, end). */
static inline int rsp_uvarint(const uint8_t *buf, uint64_t end, uint64_t *pos,
                              int64_t *out) {
    uint64_t value = 0, p = *pos;
    int i;
    for (i = 0; i < 9 && p < end; i++) {
        uint8_t byte = buf[p++];
        value |= (uint64_t)(byte & 0x7f) << (7 * i);
        if (!(byte & 0x80)) {
            *pos = p;
            *out = (int64_t)value;
            return E_OK;
        }
    }
    return E_FALLBACK;
}

/* A plain QUERY body: op, request id, name field, u, v and nothing else. */
static int rsp_plain_query(const uint8_t *buf, uint64_t p, uint64_t end,
                           uint64_t *name, uint64_t *name_len, int64_t *cols) {
    int64_t length;
    if (p >= end || buf[p] != RSP_OP_QUERY) return E_FALLBACK;
    p++;
    if (rsp_uvarint(buf, end, &p, &cols[0]) || rsp_uvarint(buf, end, &p, &length) ||
        (uint64_t)length > end - p)
        return E_FALLBACK;
    *name = p;
    *name_len = (uint64_t)length;
    p += (uint64_t)length;
    if (rsp_uvarint(buf, end, &p, &cols[1]) || rsp_uvarint(buf, end, &p, &cols[2]))
        return E_FALLBACK;
    return p == end ? E_OK : E_FALLBACK;
}

/* A plain RESULT body: op, request id, kind exact, count 1, one value. */
static int rsp_plain_result(const uint8_t *buf, uint64_t p, uint64_t end,
                            uint64_t *name, uint64_t *name_len, int64_t *cols) {
    int64_t count;
    if (p >= end || buf[p] != RSP_OP_RESULT) return E_FALLBACK;
    p++;
    if (rsp_uvarint(buf, end, &p, &cols[0]) || p >= end || buf[p] != 0) return E_FALLBACK;
    p++;
    if (rsp_uvarint(buf, end, &p, &count) || count != 1 ||
        rsp_uvarint(buf, end, &p, &cols[1]))
        return E_FALLBACK;
    *name = p;
    *name_len = 0;
    return p == end ? E_OK : E_FALLBACK;
}

typedef int (*rsp_plain_fn)(const uint8_t *, uint64_t, uint64_t, uint64_t *,
                            uint64_t *, int64_t *);

/* The run of plain frames from ``pos``, at most ``max_frames``: ids[i] and
 * ``width`` values per frame in vals.  ``info`` receives the position
 * after the run, the run's name field (offset, length), the stop reason and
 * a stopping frame's body bounds. */
static int64_t rsp_scan(rsp_plain_fn plain, int width, const uint8_t *buf,
                        uint64_t len, uint64_t pos, int64_t max_frames,
                        int64_t *ids, int64_t *vals, uint64_t *info) {
    int64_t count = 0, cols[3];
    uint64_t body, end, name, name_len;
    int status, k;
    info[1] = info[2] = 0;
    for (;;) {
        if (count >= max_frames) {
            status = SCAN_AGAIN;
            break;
        }
        status = rsp_frame(buf, len, pos, &body, &end);
        if (status) {
            status = status == 1 ? SCAN_MORE : SCAN_CORRUPT;
            break;
        }
        if (plain(buf, body, end, &name, &name_len, cols)) {
            info[4] = body;
            info[5] = end;
            status = SCAN_FRAME;
            break;
        }
        if (!count) {
            info[1] = name;
            info[2] = name_len;
        } else if (name_len != info[2] || memcmp(buf + name, buf + info[1], name_len)) {
            status = SCAN_AGAIN;
            break;
        }
        ids[count] = cols[0];
        for (k = 0; k < width; k++) vals[width * count + k] = cols[1 + k];
        count++;
        pos = end;
    }
    info[0] = pos;
    info[3] = (uint64_t)status;
    return count;
}

/* QUERY frames: request ids into ``ids``, (u, v) pairs flat into ``pairs``. */
int64_t repro_scan_queries(const uint8_t *buf, uint64_t len, uint64_t pos,
                           int64_t max_frames, int64_t *ids, int64_t *pairs,
                           uint64_t *info) {
    return rsp_scan(rsp_plain_query, 2, buf, len, pos, max_frames, ids, pairs, info);
}

/* RESULT frames: request ids into ``ids``, the exact values into ``values``. */
int64_t repro_scan_results(const uint8_t *buf, uint64_t len, uint64_t pos,
                           int64_t max_frames, int64_t *ids, int64_t *values,
                           uint64_t *info) {
    return rsp_scan(rsp_plain_result, 1, buf, len, pos, max_frames, ids, values, info);
}

static inline uint8_t *rsp_put_uvarint(uint8_t *p, uint64_t v) {
    while (v >= 0x80) {
        *p++ = (uint8_t)(v | 0x80);
        v >>= 7;
    }
    *p++ = (uint8_t)v;
    return p;
}

/* ``count`` exact single-value RESULT frames, byte for byte those of
 * ``protocol.encode_result_block``: uvarint(body length), then 0x81,
 * uvarint(id), kind 0, count 1, uvarint(value).  ``out`` holds
 * RSP_RESULT_BYTES bytes per frame.  Returns the bytes written, or -1 —
 * writing nothing useful — when an id or value is negative (the Python
 * encoder then raises as it would). */
#define RSP_RESULT_BYTES 24
int64_t repro_encode_results(const int64_t *ids, const int64_t *values,
                             int64_t count, uint8_t *out) {
    uint8_t *p = out;
    int64_t i;
    for (i = 0; i < count; i++) {
        uint8_t *body = p + 1;
        uint8_t *q = body;
        if (ids[i] < 0 || values[i] < 0) return -1;
        *q++ = RSP_OP_RESULT;
        q = rsp_put_uvarint(q, (uint64_t)ids[i]);
        *q++ = 0;
        *q++ = 1;
        q = rsp_put_uvarint(q, (uint64_t)values[i]);
        *p = (uint8_t)(q - body); /* at most 22 bytes: a one-byte prefix */
        p = q;
    }
    return (int64_t)(p - out);
}

static inline uint64_t rsp_uvarint_len(uint64_t v) {
    uint64_t n = 1;
    while (v >= 0x80) {
        v >>= 7;
        n++;
    }
    return n;
}

/* ``count`` plain QUERY frames for one member, byte for byte those of
 * ``protocol.encode_query(ids[i], pairs[2i], pairs[2i + 1], name)``:
 * uvarint(body length), then 0x01, uvarint(id), uvarint(name_len), the
 * name's bytes, uvarint(u), uvarint(v).  A long name takes a longer length
 * prefix, as ``encode_frame`` writes it.  ``out`` holds RSP_QUERY_BYTES +
 * name_len bytes per frame.  Returns the bytes written, or -1 — writing
 * nothing useful — when an id, u or v is negative. */
#define RSP_QUERY_BYTES 48
int64_t repro_encode_queries(const int64_t *ids, const int64_t *pairs,
                             int64_t count, const uint8_t *name,
                             uint64_t name_len, uint8_t *out) {
    uint8_t *p = out;
    uint64_t fixed = 1 + rsp_uvarint_len(name_len) + name_len;
    int64_t i;
    for (i = 0; i < count; i++) {
        int64_t id = ids[i], u = pairs[2 * i], v = pairs[2 * i + 1];
        if (id < 0 || u < 0 || v < 0) return -1;
        p = rsp_put_uvarint(p, fixed + rsp_uvarint_len((uint64_t)id) +
                                   rsp_uvarint_len((uint64_t)u) +
                                   rsp_uvarint_len((uint64_t)v));
        *p++ = RSP_OP_QUERY;
        p = rsp_put_uvarint(p, (uint64_t)id);
        p = rsp_put_uvarint(p, name_len);
        if (name_len) {
            memcpy(p, name, (size_t)name_len);
            p += name_len;
        }
        p = rsp_put_uvarint(p, (uint64_t)u);
        p = rsp_put_uvarint(p, (uint64_t)v);
    }
    return (int64_t)(p - out);
}
