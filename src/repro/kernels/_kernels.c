/* Native decode/distance kernels for the repro label store.
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
 * Bit layout contract (matching repro.encoding.bitio): MSB-first within the
 * packed stream; label i starts at bit offset offs[i] * 8 and is lens[i]
 * bits long.  Codes: unary 0^k 1; Elias gamma = unary(zeros) + zeros bits,
 * value ((1 << zeros) | rest) - 1; Elias delta = gamma(width - 1) + width-1
 * bits; Lemma 2.2 monotone = gamma(count), gamma(low_width), count packed
 * low parts, count unary-coded high-part differences.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define E_OK 0
#define E_FALLBACK 1

/* Arbitrary sanity ceilings: anything above falls back to Python (which
 * handles unbounded integers).  Chosen so every intermediate fits int64
 * with room to spare. */
#define MAX_COUNT (1u << 20)
#define MAX_VALUE_BITS 56

#define ABI_VERSION 3

int repro_kernels_abi(void) { return ABI_VERSION; }

/* -- bit reader ---------------------------------------------------------- */

typedef struct {
    const uint8_t *base;
    uint64_t pos;
    uint64_t end;
} br_t;

static inline int br_read(br_t *r, uint32_t width, uint64_t *out) {
    uint64_t pos = r->pos;
    uint64_t result = 0;
    uint32_t got = 0;
    if (width > 63 || pos + width > r->end) return E_FALLBACK;
    while (got < width) {
        uint64_t byte_i = pos >> 3;
        uint32_t bit_i = (uint32_t)(pos & 7);
        uint32_t avail = 8 - bit_i;
        uint32_t want = width - got;
        uint32_t take = want < avail ? want : avail;
        uint32_t chunk =
            (uint32_t)(r->base[byte_i] >> (avail - take)) & ((1u << take) - 1u);
        result = (result << take) | chunk;
        pos += take;
        got += take;
    }
    r->pos = pos;
    *out = result;
    return E_OK;
}

static inline int br_unary(br_t *r, uint64_t *zeros) {
    uint64_t pos = r->pos;
    uint64_t count = 0;
    while (pos < r->end) {
        uint32_t bit = (r->base[pos >> 3] >> (7 - (pos & 7))) & 1u;
        pos++;
        if (bit) {
            r->pos = pos;
            *zeros = count;
            return E_OK;
        }
        count++;
    }
    return E_FALLBACK;
}

static inline int br_gamma(br_t *r, uint64_t *out) {
    uint64_t zeros, rest = 0;
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
    cap = v->cap ? v->cap : 256;
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

/* -- bulk varint decode (store index) ----------------------------------- */

/* ``count`` LEB128 varints starting at byte ``start``; mirrors
 * repro.encoding.varint.decode_uvarint including its 64-bit-shift cap. */
int repro_varint_many(const uint8_t *buf, uint64_t buf_len, uint64_t start,
                      uint64_t count, uint64_t *out, uint64_t *end_pos) {
    uint64_t pos = start;
    uint64_t i;
    for (i = 0; i < count; i++) {
        uint64_t value = 0;
        uint32_t shift = 0;
        for (;;) {
            uint8_t byte;
            if (pos >= buf_len) return E_FALLBACK;
            byte = buf[pos++];
            if (shift == 63 && (byte & 0x7Eu)) return E_FALLBACK;
            value |= ((uint64_t)(byte & 0x7Fu)) << shift;
            if (!(byte & 0x80u)) break;
            shift += 7;
            if (shift > 63) return E_FALLBACK;
        }
        out[i] = value;
    }
    *end_pos = pos;
    return E_OK;
}

/* -- hld-fixed ------------------------------------------------------------ */

typedef struct {
    uint64_t root_distance;
    uint32_t count;
    size_t level_start; /* base index into the shared ids/exits vectors */
} hld_label_t;

typedef struct {
    hld_label_t *labels;
    vec_t ids;
    vec_t exits;
    uint32_t id_width;
    uint32_t distance_width;
} hld_arena_t;

static void hld_arena_free(hld_arena_t *a) {
    free(a->labels);
    vec_free(&a->ids);
    vec_free(&a->exits);
}

/* Decode the labels of ``nodes`` (slot order) into the arena.  All labels
 * must share one (id_width, distance_width) header — a per-store invariant
 * of the encoder; anything else falls back. */
static int hld_decode_all(const uint8_t *payload, const uint64_t *offs,
                          const uint64_t *lens, int64_t n_total,
                          const int32_t *nodes, int64_t n_nodes,
                          hld_arena_t *a) {
    int64_t s;
    memset(a, 0, sizeof(*a));
    a->labels = (hld_label_t *)malloc((size_t)n_nodes * sizeof(hld_label_t));
    if (!a->labels) return E_FALLBACK;
    for (s = 0; s < n_nodes; s++) {
        int32_t node = nodes[s];
        br_t r;
        uint64_t idw, dw, count, rd;
        uint32_t level;
        hld_label_t *lab = &a->labels[s];
        if (node < 0 || node >= n_total) goto fail;
        r.base = payload;
        r.pos = offs[node] * 8;
        r.end = r.pos + lens[node];
        if (br_gamma(&r, &idw) || br_gamma(&r, &dw) || br_gamma(&r, &count))
            goto fail;
        if (idw == 0 || idw > MAX_VALUE_BITS || dw == 0 || dw > MAX_VALUE_BITS ||
            count > MAX_COUNT)
            goto fail;
        if (s == 0) {
            a->id_width = (uint32_t)idw;
            a->distance_width = (uint32_t)dw;
        } else if (a->id_width != (uint32_t)idw ||
                   a->distance_width != (uint32_t)dw) {
            goto fail;
        }
        if (br_read(&r, (uint32_t)dw, &rd)) goto fail;
        lab->root_distance = rd;
        lab->count = (uint32_t)count;
        lab->level_start = a->ids.len;
        if (vec_reserve(&a->ids, (size_t)count) ||
            vec_reserve(&a->exits, (size_t)count))
            goto fail;
        for (level = 0; level < (uint32_t)count; level++) {
            uint64_t path_id, exit_distance;
            if (br_read(&r, (uint32_t)idw, &path_id) ||
                br_read(&r, (uint32_t)dw, &exit_distance))
                goto fail;
            a->ids.data[a->ids.len++] = path_id;
            a->exits.data[a->exits.len++] = exit_distance;
        }
    }
    return E_OK;
fail:
    hld_arena_free(a);
    return E_FALLBACK;
}

/* Deepest-common-heavy-path distance; err set on foreign-tree pairs. */
static inline int64_t hld_dist(const hld_arena_t *a, int64_t u, int64_t v,
                               int *err) {
    const hld_label_t *lu = &a->labels[u], *lv = &a->labels[v];
    const uint64_t *iu = a->ids.data + lu->level_start;
    const uint64_t *iv = a->ids.data + lv->level_start;
    uint32_t n = lu->count < lv->count ? lu->count : lv->count;
    uint32_t t = 0;
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
    eu = a->exits.data[lu->level_start + t - 1];
    ev = a->exits.data[lv->level_start + t - 1];
    nca = eu < ev ? eu : ev;
    return (int64_t)(lu->root_distance + lv->root_distance) - 2 * (int64_t)nca;
}

int repro_hld_batch(const uint8_t *payload, const uint64_t *offs,
                    const uint64_t *lens, int64_t n_total, const int32_t *nodes,
                    int64_t n_nodes, const int32_t *ui, const int32_t *vi,
                    int64_t n_pairs, int64_t *out) {
    hld_arena_t a;
    int64_t p;
    int err = 0;
    if (n_nodes <= 0) return E_FALLBACK;
    if (hld_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (p = 0; p < n_pairs; p++) {
        int32_t u = ui[p], v = vi[p];
        if (u < 0 || u >= n_nodes || v < 0 || v >= n_nodes) {
            err = 1;
            break;
        }
        out[p] = hld_dist(&a, u, v, &err);
        if (err) break;
    }
    hld_arena_free(&a);
    return err ? E_FALLBACK : E_OK;
}

int repro_hld_matrix(const uint8_t *payload, const uint64_t *offs,
                     const uint64_t *lens, int64_t n_total,
                     const int32_t *nodes, int64_t n_nodes, int64_t *out) {
    hld_arena_t a;
    int64_t i, j;
    int err = 0;
    if (n_nodes <= 0) return E_FALLBACK;
    if (hld_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (i = 0; i < n_nodes && !err; i++) {
        out[i * n_nodes + i] = hld_dist(&a, i, i, &err);
        for (j = i + 1; j < n_nodes && !err; j++) {
            int64_t d = hld_dist(&a, i, j, &err);
            out[i * n_nodes + j] = d;
            out[j * n_nodes + i] = d;
        }
    }
    hld_arena_free(&a);
    return err ? E_FALLBACK : E_OK;
}

/* FNV-1a-style fold over the decoded fields, in node order — the Python
 * tiers compute the identical fold over parse_many labels, so equal
 * checksums certify the decoders agree on every field of every label. */
int repro_hld_checksum(const uint8_t *payload, const uint64_t *offs,
                       const uint64_t *lens, int64_t n_total,
                       const int32_t *nodes, int64_t n_nodes, uint64_t *out) {
    hld_arena_t a;
    uint64_t h = 1469598103934665603ull;
    const uint64_t prime = 1099511628211ull;
    int64_t s;
    uint32_t level;
    if (n_nodes <= 0) return E_FALLBACK;
    if (hld_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (s = 0; s < n_nodes; s++) {
        const hld_label_t *lab = &a.labels[s];
        h = (h ^ lab->root_distance) * prime;
        h = (h ^ lab->count) * prime;
        for (level = 0; level < lab->count; level++) {
            h = (h ^ a.ids.data[lab->level_start + level]) * prime;
            h = (h ^ a.exits.data[lab->level_start + level]) * prime;
        }
    }
    hld_arena_free(&a);
    *out = h;
    return E_OK;
}

/* -- freedman ------------------------------------------------------------- */

typedef struct {
    uint64_t node_id;
    uint64_t root_distance;
    uint64_t domination;
    uint32_t depth;
    size_t level_start;     /* base into the per-level vectors */
    size_t frag_ref_start;  /* base into frag_refs */
    uint32_t frag_ref_count;
    size_t frag_dist_start; /* base into frag_dists */
    uint32_t frag_dist_count;
} fr_label_t;

typedef struct {
    fr_label_t *labels;
    vec_t cw_val;    /* per level: codeword bits as an integer */
    vec_t cw_len;    /* per level: codeword length */
    vec_t lw;        /* per level: light weight */
    vec_t skip;      /* per level: entry skipped flag */
    vec_t kept_val;  /* per level: truncated entry bits */
    vec_t kept_len;  /* per level: truncated entry length */
    vec_t pushed;    /* per level: bits pushed to the accumulator */
    vec_t acc_off;   /* per level: absolute bit offset of the accumulator */
    vec_t acc_len;   /* per level: accumulator length */
    vec_t frag_refs;
    vec_t frag_dists;
} fr_arena_t;

static void fr_arena_free(fr_arena_t *a) {
    free(a->labels);
    vec_free(&a->cw_val);
    vec_free(&a->cw_len);
    vec_free(&a->lw);
    vec_free(&a->skip);
    vec_free(&a->kept_val);
    vec_free(&a->kept_len);
    vec_free(&a->pushed);
    vec_free(&a->acc_off);
    vec_free(&a->acc_len);
    vec_free(&a->frag_refs);
    vec_free(&a->frag_dists);
}

static int fr_decode_all(const uint8_t *payload, const uint64_t *offs,
                         const uint64_t *lens, int64_t n_total,
                         const int32_t *nodes, int64_t n_nodes,
                         fr_arena_t *a) {
    int64_t s;
    memset(a, 0, sizeof(*a));
    a->labels = (fr_label_t *)malloc((size_t)n_nodes * sizeof(fr_label_t));
    if (!a->labels) return E_FALLBACK;
    for (s = 0; s < n_nodes; s++) {
        int32_t node = nodes[s];
        br_t r;
        uint64_t depth, value;
        uint32_t level, count;
        fr_label_t *lab = &a->labels[s];
        if (node < 0 || node >= n_total) goto fail;
        r.base = payload;
        r.pos = offs[node] * 8;
        r.end = r.pos + lens[node];
        if (br_delta(&r, &lab->node_id)) goto fail;
        if (br_delta(&r, &lab->root_distance)) goto fail;
        if (br_delta(&r, &lab->domination)) goto fail;
        if (lab->root_distance >> MAX_VALUE_BITS) goto fail;
        if (br_gamma(&r, &depth)) goto fail;
        if (depth > MAX_COUNT) goto fail;
        lab->depth = (uint32_t)depth;
        lab->level_start = a->cw_val.len;
        if (vec_reserve(&a->cw_val, (size_t)depth) ||
            vec_reserve(&a->cw_len, (size_t)depth) ||
            vec_reserve(&a->lw, (size_t)depth) ||
            vec_reserve(&a->skip, (size_t)depth) ||
            vec_reserve(&a->kept_val, (size_t)depth) ||
            vec_reserve(&a->kept_len, (size_t)depth) ||
            vec_reserve(&a->pushed, (size_t)depth) ||
            vec_reserve(&a->acc_off, (size_t)depth) ||
            vec_reserve(&a->acc_len, (size_t)depth))
            goto fail;
        for (level = 0; level < (uint32_t)depth; level++) {
            uint64_t len;
            if (br_gamma(&r, &len) || len > 63) goto fail;
            if (br_read(&r, (uint32_t)len, &value)) goto fail;
            a->cw_len.data[a->cw_len.len++] = len;
            a->cw_val.data[a->cw_val.len++] = value;
        }
        for (level = 0; level < (uint32_t)depth; level++) {
            if (br_gamma(&r, &value) || value >> MAX_VALUE_BITS) goto fail;
            a->lw.data[a->lw.len++] = value;
        }
        lab->frag_ref_start = a->frag_refs.len;
        if (br_monotone(&r, &a->frag_refs, &count)) goto fail;
        lab->frag_ref_count = count;
        lab->frag_dist_start = a->frag_dists.len;
        if (br_monotone(&r, &a->frag_dists, &count)) goto fail;
        lab->frag_dist_count = count;
        for (level = 0; level < (uint32_t)depth; level++) {
            uint64_t bit;
            br_t *rp = &r;
            if (rp->pos >= rp->end) goto fail;
            bit = (rp->base[rp->pos >> 3] >> (7 - (rp->pos & 7))) & 1u;
            rp->pos++;
            a->skip.data[a->skip.len++] = bit;
            if (bit) {
                a->kept_val.data[a->kept_val.len++] = 0;
                a->kept_len.data[a->kept_len.len++] = 0;
                a->pushed.data[a->pushed.len++] = 0;
            } else {
                uint64_t len, pushed;
                if (br_gamma(&r, &len) || len > MAX_VALUE_BITS) goto fail;
                if (br_read(&r, (uint32_t)len, &value)) goto fail;
                if (br_gamma(&r, &pushed) || pushed > MAX_VALUE_BITS) goto fail;
                if (len + pushed > MAX_VALUE_BITS) goto fail;
                a->kept_len.data[a->kept_len.len++] = len;
                a->kept_val.data[a->kept_val.len++] = value;
                a->pushed.data[a->pushed.len++] = pushed;
            }
        }
        for (level = 0; level < (uint32_t)depth; level++) {
            uint64_t len;
            if (br_gamma(&r, &len)) goto fail;
            if (r.pos + len > r.end) goto fail;
            a->acc_off.data[a->acc_off.len++] = r.pos;
            a->acc_len.data[a->acc_len.len++] = len;
            r.pos += len;
        }
    }
    return E_OK;
fail:
    fr_arena_free(a);
    return E_FALLBACK;
}

/* Lemma 3.1 query: critical level from the light codes, dominating side
 * from the postorder domination numbers, entry reconstructed from the
 * dominating side's truncated bits plus the dominated side's accumulator. */
static inline int64_t fr_dist(const fr_arena_t *a, const uint8_t *payload,
                              int64_t u, int64_t v, int *err) {
    const fr_label_t *lu = &a->labels[u], *lv = &a->labels[v];
    const fr_label_t *dom, *sub;
    size_t du, dv, dd, ds;
    uint32_t n, level;
    uint64_t value, pushed, ref, reference;
    int64_t nca;
    if (lu->node_id == lv->node_id) return 0;
    n = lu->depth < lv->depth ? lu->depth : lv->depth;
    du = lu->level_start;
    dv = lv->level_start;
    level = 0;
    while (level < n && a->cw_len.data[du + level] == a->cw_len.data[dv + level] &&
           a->cw_val.data[du + level] == a->cw_val.data[dv + level])
        level++;
    if (lu->domination < lv->domination) {
        dom = lu;
        sub = lv;
    } else {
        dom = lv;
        sub = lu;
    }
    if (level >= dom->depth || level >= sub->depth) goto bad;
    dd = dom->level_start;
    ds = sub->level_start;
    if (a->skip.data[dd + level]) goto bad;
    value = a->kept_val.data[dd + level];
    pushed = a->pushed.data[dd + level];
    if (pushed) {
        uint64_t start = a->acc_len.data[dd + level];
        uint64_t sub_len = a->acc_len.data[ds + level];
        uint64_t segment;
        br_t r;
        if (start + pushed > sub_len) goto bad;
        if (a->kept_len.data[dd + level] + pushed > MAX_VALUE_BITS) goto bad;
        r.base = payload;
        r.pos = a->acc_off.data[ds + level] + start;
        r.end = a->acc_off.data[ds + level] + sub_len;
        if (br_read(&r, (uint32_t)pushed, &segment)) goto bad;
        value = (value << pushed) | segment;
    }
    /* Python: fragment_distances[fragment_refs[level]], IndexError past
     * either sequence — the refs live in their own arena, not at dd */
    if (level >= dom->frag_ref_count) goto bad;
    ref = a->frag_refs.data[dom->frag_ref_start + level];
    if (ref >= dom->frag_dist_count) goto bad;
    reference = a->frag_dists.data[dom->frag_dist_start + ref];
    if (reference >> MAX_VALUE_BITS) goto bad;
    nca = (int64_t)(reference + value) - (int64_t)a->lw.data[dd + level];
    return (int64_t)(lu->root_distance + lv->root_distance) - 2 * nca;
bad:
    *err = 1;
    return 0;
}

int repro_freedman_batch(const uint8_t *payload, const uint64_t *offs,
                         const uint64_t *lens, int64_t n_total,
                         const int32_t *nodes, int64_t n_nodes,
                         const int32_t *ui, const int32_t *vi, int64_t n_pairs,
                         int64_t *out) {
    fr_arena_t a;
    int64_t p;
    int err = 0;
    if (n_nodes <= 0) return E_FALLBACK;
    if (fr_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (p = 0; p < n_pairs; p++) {
        int32_t u = ui[p], v = vi[p];
        if (u < 0 || u >= n_nodes || v < 0 || v >= n_nodes) {
            err = 1;
            break;
        }
        out[p] = fr_dist(&a, payload, u, v, &err);
        if (err) break;
    }
    fr_arena_free(&a);
    return err ? E_FALLBACK : E_OK;
}

int repro_freedman_matrix(const uint8_t *payload, const uint64_t *offs,
                          const uint64_t *lens, int64_t n_total,
                          const int32_t *nodes, int64_t n_nodes, int64_t *out) {
    fr_arena_t a;
    int64_t i, j;
    int err = 0;
    if (n_nodes <= 0) return E_FALLBACK;
    if (fr_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (i = 0; i < n_nodes && !err; i++) {
        out[i * n_nodes + i] = fr_dist(&a, payload, i, i, &err);
        for (j = i + 1; j < n_nodes && !err; j++) {
            int64_t d = fr_dist(&a, payload, i, j, &err);
            out[i * n_nodes + j] = d;
            out[j * n_nodes + i] = d;
        }
    }
    fr_arena_free(&a);
    return err ? E_FALLBACK : E_OK;
}

/* Same field fold as repro_hld_checksum, over the Freedman grammar.  The
 * accumulators are folded as (length, low 64 value bits) — the only fields
 * a >64-bit value can reach. */
int repro_freedman_checksum(const uint8_t *payload, const uint64_t *offs,
                            const uint64_t *lens, int64_t n_total,
                            const int32_t *nodes, int64_t n_nodes,
                            uint64_t *out) {
    fr_arena_t a;
    uint64_t h = 1469598103934665603ull;
    const uint64_t prime = 1099511628211ull;
    int64_t s;
    uint32_t i;
    if (n_nodes <= 0) return E_FALLBACK;
    if (fr_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (s = 0; s < n_nodes; s++) {
        const fr_label_t *lab = &a.labels[s];
        size_t base = lab->level_start;
        h = (h ^ lab->node_id) * prime;
        h = (h ^ lab->root_distance) * prime;
        h = (h ^ lab->domination) * prime;
        h = (h ^ lab->depth) * prime;
        for (i = 0; i < lab->depth; i++) {
            h = (h ^ a.cw_len.data[base + i]) * prime;
            h = (h ^ a.cw_val.data[base + i]) * prime;
            h = (h ^ a.lw.data[base + i]) * prime;
            h = (h ^ a.skip.data[base + i]) * prime;
            h = (h ^ a.kept_len.data[base + i]) * prime;
            h = (h ^ a.kept_val.data[base + i]) * prime;
            h = (h ^ a.pushed.data[base + i]) * prime;
        }
        for (i = 0; i < lab->frag_ref_count; i++)
            h = (h ^ a.frag_refs.data[lab->frag_ref_start + i]) * prime;
        for (i = 0; i < lab->frag_dist_count; i++)
            h = (h ^ a.frag_dists.data[lab->frag_dist_start + i]) * prime;
        for (i = 0; i < lab->depth; i++) {
            uint64_t len = a.acc_len.data[base + i];
            uint64_t low = 0;
            br_t r;
            r.base = payload;
            r.end = a.acc_off.data[base + i] + len;
            if (len > 63) {
                r.pos = r.end - 64;
                /* low 64 bits = last 64 bits of the accumulator stream */
                {
                    uint64_t hi, lo;
                    r.pos = r.end - 64;
                    if (br_read(&r, 32, &hi) || br_read(&r, 32, &lo)) {
                        fr_arena_free(&a);
                        return E_FALLBACK;
                    }
                    low = (hi << 32) | lo;
                }
            } else if (len) {
                r.pos = r.end - len;
                if (br_read(&r, (uint32_t)len, &low)) {
                    fr_arena_free(&a);
                    return E_FALLBACK;
                }
            }
            h = (h ^ len) * prime;
            h = (h ^ low) * prime;
        }
    }
    fr_arena_free(&a);
    *out = h;
    return E_OK;
}
