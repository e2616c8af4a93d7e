"""MediaBench-like workloads (Table 4 of the paper).

Embedded-media kernels with the strided, table-driven load mixes the
paper reports for MediaBench: ADPCM-style predictors (G.721, ADPCM),
pyramid/wavelet filters (EPIC), LPC lattice filters (GSM), block
transforms with motion compensation (MPEG), multi-precision arithmetic
(PGP), scanline rendering with edge lists (Ghostscript), and a
floating-point filter bank (RASTA).
"""

from __future__ import annotations

from typing import List

from repro.workloads.registry import Workload, register
from repro.workloads.spec import _LCG_C, _Lcg

# ---------------------------------------------------------------------------
# G.721 encode/decode — ADPCM predictor with quantization tables
# ---------------------------------------------------------------------------

_G721_SRC = _LCG_C + """
int qtab[8];
int wtab[8];
int dq[8];

int predict() {
    int i;
    int acc = 0;
    for (i = 0; i < 8; i++) {
        acc += dq[i] * wtab[i];
    }
    return acc / 64;
}

int quantize(int d) {
    int i = 0;
    int mag = d;
    if (mag < 0) { mag = -mag; }
    while (i < 7 && qtab[i] < mag) { i++; }
    return i;
}

int main() {
    int n = __SCALE__;
    int t;
    int total = 0;
    int mode = __MODE__;
    for (t = 0; t < 8; t++) {
        qtab[t] = (t + 1) * (t + 1) * 4;
        wtab[t] = 8 - t;
        dq[t] = 0;
    }
    for (t = 0; t < n; t++) {
        int sample = (lcg() % 512) - 256;
        int pred = predict();
        int diff = sample - pred;
        int code = quantize(diff);
        int rec;
        if (mode == 1) { code = (code + 1) & 7; }
        rec = qtab[code] / 2;
        if (diff < 0) { rec = -rec; }
        {
            int i;
            for (i = 7; i > 0; i--) { dq[i] = dq[i - 1]; }
        }
        dq[0] = rec;
        total = (total + code + (rec & 255)) & 16777215;
    }
    print_int(total);
    return 0;
}
"""


def _g721_ref(scale: int, mode: int) -> List[int]:
    lcg = _Lcg(12345)
    qtab = [(t + 1) * (t + 1) * 4 for t in range(8)]
    wtab = [8 - t for t in range(8)]
    dq = [0] * 8
    total = 0
    for _ in range(scale):
        sample = (lcg.next() % 512) - 256
        acc = sum(dq[i] * wtab[i] for i in range(8))
        pred = abs(acc) // 64 * (1 if acc >= 0 else -1)
        diff = sample - pred
        mag = abs(diff)
        code = 0
        while code < 7 and qtab[code] < mag:
            code += 1
        if mode == 1:
            code = (code + 1) & 7
        rec = qtab[code] // 2
        if diff < 0:
            rec = -rec
        dq = [rec] + dq[:-1]
        total = (total + code + (rec & 255)) & 16777215
    return [total]


register(
    Workload(
        "g721_decode",
        "mediabench",
        "ADPCM predictor + quantizer (decode path)",
        _G721_SRC.replace("__MODE__", "0"),
        lambda scale: _g721_ref(scale, 0),
        default_scale=700,
    )
)
register(
    Workload(
        "g721_encode",
        "mediabench",
        "ADPCM predictor + quantizer (encode path)",
        _G721_SRC.replace("__MODE__", "1"),
        lambda scale: _g721_ref(scale, 1),
        default_scale=700,
    )
)

# ---------------------------------------------------------------------------
# EPIC encode/decode — pyramid filtering
# ---------------------------------------------------------------------------

_EPIC_SRC = _LCG_C + """
int signal[1024];
int lo[512];
int hi[512];

int main() {
    int n = 1024;
    int r;
    int total = 0;
    int i;
    for (i = 0; i < n; i++) { signal[i] = lcg() % 256; }
    for (r = 0; r < __SCALE__; r++) {
        int len = n;
        int level;
        for (level = 0; level < 3; level++) {
            int half = len / 2;
            for (i = 0; i < half; i++) {
                int a = signal[2 * i];
                int b = signal[2 * i + 1];
                lo[i] = (a + b) / 2;
                hi[i] = a - b;
            }
            if (__DECODE__) {
                /* reconstruct and fold back */
                for (i = 0; i < half; i++) {
                    int a = lo[i] + (hi[i] + 1) / 2;
                    int b = a - hi[i];
                    signal[2 * i] = a & 255;
                    signal[2 * i + 1] = b & 255;
                    total = (total + a) & 16777215;
                }
            } else {
                for (i = 0; i < half; i++) {
                    signal[i] = lo[i];
                    total = (total + (hi[i] & 255)) & 16777215;
                }
            }
            len = half;
        }
    }
    print_int(total);
    return 0;
}
"""


def _epic_ref(scale: int, decode: int) -> List[int]:
    lcg = _Lcg(12345)
    n = 1024
    signal = [lcg.next() % 256 for _ in range(n)]
    total = 0

    def cdiv(a: int, b: int) -> int:
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    for _ in range(scale):
        length = n
        for _level in range(3):
            half = length // 2
            lo = [0] * half
            hi = [0] * half
            for i in range(half):
                a = signal[2 * i]
                b = signal[2 * i + 1]
                lo[i] = cdiv(a + b, 2)
                hi[i] = a - b
            if decode:
                for i in range(half):
                    a = lo[i] + cdiv(hi[i] + 1, 2)
                    b = a - hi[i]
                    signal[2 * i] = a & 255
                    signal[2 * i + 1] = b & 255
                    total = (total + a) & 16777215
            else:
                for i in range(half):
                    signal[i] = lo[i]
                    total = (total + (hi[i] & 255)) & 16777215
            length = half
    return [total]


register(
    Workload(
        "epic_decode",
        "mediabench",
        "pyramid reconstruction filter",
        _EPIC_SRC.replace("__DECODE__", "1"),
        lambda scale: _epic_ref(scale, 1),
        default_scale=14,
    )
)
register(
    Workload(
        "epic_encode",
        "mediabench",
        "pyramid analysis filter",
        _EPIC_SRC.replace("__DECODE__", "0"),
        lambda scale: _epic_ref(scale, 0),
        default_scale=16,
    )
)

# ---------------------------------------------------------------------------
# Ghostscript — scanline fill with edge lists
# ---------------------------------------------------------------------------

_GS_SRC = _LCG_C + """
struct edge { int x0; int dx; int span; struct edge *next; };

struct edge *rows[64];
char fb[4096];     /* 64x64 framebuffer */

int main() {
    int i; int y; int r;
    int total = 0;
    for (i = 0; i < __NEDGES__; i++) {
        struct edge *e = (struct edge *) malloc(sizeof(struct edge));
        int row = lcg() % 64;
        e->x0 = lcg() % 48;
        e->dx = (lcg() % 3) - 1;
        e->span = 4 + lcg() % 12;
        e->next = rows[row];
        rows[row] = e;
    }
    for (r = 0; r < __SCALE__; r++) {
        for (y = 0; y < 64; y++) {
            struct edge *e = rows[y];
            while (e) {
                int x = e->x0;
                int s;
                for (s = 0; s < e->span; s++) {
                    fb[y * 64 + x + s] = (fb[y * 64 + x + s] + 1) & 255;
                }
                e->x0 = e->x0 + e->dx;
                if (e->x0 < 0) { e->x0 = 0; }
                if (e->x0 > 47) { e->x0 = 47; }
                e = e->next;
            }
        }
        total = (total + fb[(r * 131) & 4095]) & 16777215;
    }
    print_int(total);
    return 0;
}
"""


def _gs_ref(scale: int, nedges: int) -> List[int]:
    lcg = _Lcg(12345)
    rows: List[List[List[int]]] = [[] for _ in range(64)]
    for _ in range(nedges):
        row = lcg.next() % 64
        x0 = lcg.next() % 48
        dx = (lcg.next() % 3) - 1
        span = 4 + lcg.next() % 12
        rows[row].insert(0, [x0, dx, span])
    fb = [0] * 4096
    total = 0
    for r in range(scale):
        for y in range(64):
            for e in rows[y]:
                x = e[0]
                for s in range(e[2]):
                    fb[y * 64 + x + s] = (fb[y * 64 + x + s] + 1) & 255
                e[0] = min(47, max(0, e[0] + e[1]))
        total = (total + fb[(r * 131) & 4095]) & 16777215
    return [total]


register(
    Workload(
        "ghostscript",
        "mediabench",
        "scanline span fill driven by per-row edge lists",
        _GS_SRC.replace("__NEDGES__", "96"),
        lambda scale: _gs_ref(scale, 96),
        default_scale=24,
    )
)

# ---------------------------------------------------------------------------
# GSM encode/decode — LPC lattice filter
# ---------------------------------------------------------------------------

_GSM_SRC = _LCG_C + """
int frame[160];
int rp[8];
int state[8];

int main() {
    int f; int i; int k;
    int total = 0;
    for (i = 0; i < 8; i++) { rp[i] = (i * 5 + 3) & 15; state[i] = 0; }
    for (f = 0; f < __SCALE__; f++) {
        for (i = 0; i < 160; i++) { frame[i] = (lcg() % 256) - 128; }
        for (i = 0; i < 160; i++) {
            int s = frame[i];
            s = s & 65535;
            if (__ENCODE__) {
                for (k = 0; k < 8; k++) {
                    int tmp = (state[k] + ((rp[k] * s) / 16)) & 16383;
                    s = (s + ((rp[k] * state[k]) / 16)) & 65535;
                    state[k] = tmp;
                }
            } else {
                for (k = 7; k >= 0; k--) {
                    s = (s - ((rp[k] * state[k]) / 16)) & 65535;
                    state[k] = (state[k] + ((rp[k] * s) / 16)) & 16383;
                }
            }
            total = (total + s) & 16777215;
        }
    }
    print_int(total);
    return 0;
}
"""


def _gsm_ref(scale: int, encode: int) -> List[int]:
    lcg = _Lcg(12345)
    rp = [(i * 5 + 3) & 15 for i in range(8)]
    state = [0] * 8
    total = 0

    def cdiv(a: int, b: int) -> int:
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    for _ in range(scale):
        frame = [(lcg.next() % 256) - 128 for _ in range(160)]
        for i in range(160):
            s = frame[i] & 65535
            if encode:
                for k in range(8):
                    tmp = (state[k] + rp[k] * s // 16) & 16383
                    s = (s + rp[k] * state[k] // 16) & 65535
                    state[k] = tmp
            else:
                for k in range(7, -1, -1):
                    s = (s - rp[k] * state[k] // 16) & 65535
                    state[k] = (state[k] + rp[k] * s // 16) & 16383
            total = (total + s) & 16777215
    return [total]


register(
    Workload(
        "gsm_decode",
        "mediabench",
        "LPC lattice synthesis filter",
        _GSM_SRC.replace("__ENCODE__", "0"),
        lambda scale: _gsm_ref(scale, 0),
        default_scale=8,
    )
)
register(
    Workload(
        "gsm_encode",
        "mediabench",
        "LPC lattice analysis filter",
        _GSM_SRC.replace("__ENCODE__", "1"),
        lambda scale: _gsm_ref(scale, 1),
        default_scale=8,
    )
)

# ---------------------------------------------------------------------------
# MPEG decode — block IDCT-ish + motion compensation
# ---------------------------------------------------------------------------

_MPEG_SRC = _LCG_C + """
int ref_frame[1024];   /* 32x32 */
int cur[1024];
int coeffs[64];

int main() {
    int i; int b; int r;
    int total = 0;
    for (i = 0; i < 1024; i++) { ref_frame[i] = lcg() % 256; }
    for (r = 0; r < __SCALE__; r++) {
        for (b = 0; b < 16; b++) {
            int bx = (b & 3) * 8;
            int by = (b >> 2) * 8;
            int mvx = (lcg() % 5) - 2;
            int mvy = (lcg() % 5) - 2;
            int row; int col;
            for (i = 0; i < 64; i++) { coeffs[i] = (lcg() % 32) - 16; }
            /* butterfly "idct" on coeffs */
            for (row = 0; row < 8; row++) {
                for (col = 0; col < 4; col++) {
                    int a = coeffs[row * 8 + col];
                    int c = coeffs[row * 8 + 7 - col];
                    coeffs[row * 8 + col] = a + c;
                    coeffs[row * 8 + 7 - col] = a - c;
                }
            }
            /* motion compensate + add residual */
            for (row = 0; row < 8; row++) {
                for (col = 0; col < 8; col++) {
                    int sy = by + row + mvy;
                    int sx = bx + col + mvx;
                    int p;
                    if (sy < 0) { sy = 0; }
                    if (sy > 31) { sy = 31; }
                    if (sx < 0) { sx = 0; }
                    if (sx > 31) { sx = 31; }
                    p = ref_frame[sy * 32 + sx] + coeffs[row * 8 + col];
                    if (p < 0) { p = 0; }
                    if (p > 255) { p = 255; }
                    cur[(by + row) * 32 + bx + col] = p;
                    total = (total + p) & 16777215;
                }
            }
        }
        for (i = 0; i < 1024; i++) { ref_frame[i] = cur[i]; }
    }
    print_int(total);
    return 0;
}
"""


def _mpeg_ref(scale: int) -> List[int]:
    lcg = _Lcg(12345)
    ref_frame = [lcg.next() % 256 for _ in range(1024)]
    total = 0
    for _ in range(scale):
        cur = [0] * 1024
        for b in range(16):
            bx = (b & 3) * 8
            by = (b >> 2) * 8
            mvx = (lcg.next() % 5) - 2
            mvy = (lcg.next() % 5) - 2
            coeffs = [(lcg.next() % 32) - 16 for _ in range(64)]
            for row in range(8):
                for col in range(4):
                    a = coeffs[row * 8 + col]
                    c = coeffs[row * 8 + 7 - col]
                    coeffs[row * 8 + col] = a + c
                    coeffs[row * 8 + 7 - col] = a - c
            for row in range(8):
                for col in range(8):
                    sy = min(31, max(0, by + row + mvy))
                    sx = min(31, max(0, bx + col + mvx))
                    p = ref_frame[sy * 32 + sx] + coeffs[row * 8 + col]
                    p = min(255, max(0, p))
                    cur[(by + row) * 32 + bx + col] = p
                    total = (total + p) & 16777215
        ref_frame = cur
    return [total]


register(
    Workload(
        "mpeg_decode",
        "mediabench",
        "block transform + clamped motion compensation",
        _MPEG_SRC,
        _mpeg_ref,
        default_scale=10,
    )
)

# ---------------------------------------------------------------------------
# PGP encode/decode — multi-precision arithmetic
# ---------------------------------------------------------------------------

_PGP_SRC = _LCG_C + """
int a[16];
int b[16];
int prod[32];

int main() {
    int r; int i; int j;
    int total = 0;
    for (i = 0; i < 16; i++) {
        a[i] = lcg() & 65535;
        b[i] = lcg() & 65535;
    }
    for (r = 0; r < __SCALE__; r++) {
        for (i = 0; i < 32; i++) { prod[i] = 0; }
        for (i = 0; i < 16; i++) {
            int carry = 0;
            for (j = 0; j < 16; j++) {
                int t = prod[i + j] + a[i] * b[j] + carry;
                /* digits stay below 2^16 so t fits in 32 bits */
                prod[i + j] = t & 65535;
                carry = (t >> 16) & 65535;
            }
            prod[i + 16] = (prod[i + 16] + carry) & 65535;
        }
        /* fold the product back into a (pseudo modular reduction) */
        for (i = 0; i < 16; i++) {
            a[i] = (prod[i] ^ prod[i + 16]) & 65535;
            if (__DECODE__) { a[i] = (a[i] + b[i]) & 65535; }
        }
        total = (total + prod[(r * 7) & 31]) & 16777215;
    }
    print_int(total);
    return 0;
}
"""


def _pgp_ref(scale: int, decode: int) -> List[int]:
    lcg = _Lcg(12345)
    a = [lcg.next() & 65535 for _ in range(16)]
    b = [lcg.next() & 65535 for _ in range(16)]
    # Interleaved generation order in C: a[i] then b[i] per iteration.
    lcg = _Lcg(12345)
    a = []
    b = []
    for _ in range(16):
        a.append(lcg.next() & 65535)
        b.append(lcg.next() & 65535)
    total = 0
    for r in range(scale):
        prod = [0] * 32
        for i in range(16):
            carry = 0
            for j in range(16):
                t = prod[i + j] + a[i] * b[j] + carry
                prod[i + j] = t & 65535
                carry = (t >> 16) & 65535
            prod[i + 16] = (prod[i + 16] + carry) & 65535
        for i in range(16):
            a[i] = (prod[i] ^ prod[i + 16]) & 65535
            if decode:
                a[i] = (a[i] + b[i]) & 65535
        total = (total + prod[(r * 7) & 31]) & 16777215
    return [total]


register(
    Workload(
        "pgp_decode",
        "mediabench",
        "multi-precision multiply + fold (decode variant)",
        _PGP_SRC.replace("__DECODE__", "1"),
        lambda scale: _pgp_ref(scale, 1),
        default_scale=24,
    )
)
register(
    Workload(
        "pgp_encode",
        "mediabench",
        "multi-precision multiply + fold (encode variant)",
        _PGP_SRC.replace("__DECODE__", "0"),
        lambda scale: _pgp_ref(scale, 0),
        default_scale=24,
    )
)

# ---------------------------------------------------------------------------
# RASTA — floating-point filter bank
# ---------------------------------------------------------------------------

_RASTA_SRC = _LCG_C + """
double taps[8];
double hist[8];

int main() {
    int f; int i; int k;
    int total = 0;
    for (i = 0; i < 8; i++) {
        taps[i] = 1.0 / (i + 2);
        hist[i] = 0.0;
    }
    for (f = 0; f < __SCALE__; f++) {
        for (i = 0; i < 64; i++) {
            double x = (lcg() % 1000) / 250.0 - 2.0;
            double acc = 0.0;
            for (k = 7; k > 0; k--) { hist[k] = hist[k - 1]; }
            hist[0] = x;
            for (k = 0; k < 8; k++) { acc += taps[k] * hist[k]; }
            /* rasta-style compression: y = acc / (1 + |acc|) */
            if (acc < 0.0) { acc = acc / (1.0 - acc); }
            else { acc = acc / (1.0 + acc); }
            total = (total + (int) (acc * 1000.0)) & 16777215;
        }
    }
    print_int(total);
    return 0;
}
"""


def _rasta_ref(scale: int) -> List[int]:
    lcg = _Lcg(12345)
    taps = [1.0 / (i + 2) for i in range(8)]
    hist = [0.0] * 8
    total = 0
    for _ in range(scale):
        for _i in range(64):
            x = (lcg.next() % 1000) / 250.0 - 2.0
            hist = [x] + hist[:-1]
            acc = 0.0
            for k in range(8):
                acc += taps[k] * hist[k]
            if acc < 0.0:
                acc = acc / (1.0 - acc)
            else:
                acc = acc / (1.0 + acc)
            total = (total + int(acc * 1000.0)) & 16777215
    return [total]


register(
    Workload(
        "rasta",
        "mediabench",
        "double-precision FIR filter bank with compression",
        _RASTA_SRC,
        _rasta_ref,
        default_scale=14,
    )
)

# ---------------------------------------------------------------------------
# ADPCM encode/decode — IMA step tables
# ---------------------------------------------------------------------------

_ADPCM_SRC = _LCG_C + """
int steptab[32];
int indextab[8];
int input[__SCALE__];

int main() {
    int n = __SCALE__;
    int t;
    int total = 0;
    int valpred = 0;
    int index = 0;
    for (t = 0; t < 32; t++) { steptab[t] = 7 + t * t * 3; }
    indextab[0] = -1; indextab[1] = -1; indextab[2] = -1; indextab[3] = -1;
    indextab[4] = 2; indextab[5] = 4; indextab[6] = 6; indextab[7] = 8;
    for (t = 0; t < n; t++) {
        if (__ENCODE__) { input[t] = (lcg() % 2048) - 1024; }
        else { input[t] = lcg() & 7; }
    }
    for (t = 0; t < n; t++) {
        int step = steptab[index];
        int code;
        if (__ENCODE__) {
            int sample = input[t];
            int diff = sample - valpred;
            int sign = 0;
            if (diff < 0) { sign = 4; diff = -diff; }
            code = (diff * 4) / step;
            if (code > 3) { code = 3; }
            code = code + sign;
        } else {
            code = input[t];
        }
        {
            int diffq = step / 4;
            if (code & 1) { diffq += step / 2; }
            if (code & 2) { diffq += step; }
            if (code & 4) { valpred -= diffq; } else { valpred += diffq; }
            if (valpred > 2047) { valpred = 2047; }
            if (valpred < -2048) { valpred = -2048; }
        }
        index += indextab[code & 7];
        if (index < 0) { index = 0; }
        if (index > 31) { index = 31; }
        total = (total + (valpred & 4095) + code) & 16777215;
    }
    print_int(total);
    return 0;
}
"""


def _adpcm_ref(scale: int, encode: int) -> List[int]:
    lcg = _Lcg(12345)
    steptab = [7 + t * t * 3 for t in range(32)]
    indextab = [-1, -1, -1, -1, 2, 4, 6, 8]
    if encode:
        data = [(lcg.next() % 2048) - 1024 for _ in range(scale)]
    else:
        data = [lcg.next() & 7 for _ in range(scale)]
    total = 0
    valpred = 0
    index = 0
    for t in range(scale):
        step = steptab[index]
        if encode:
            sample = data[t]
            diff = sample - valpred
            sign = 0
            if diff < 0:
                sign = 4
                diff = -diff
            code = (diff * 4) // step
            if code > 3:
                code = 3
            code += sign
        else:
            code = data[t]
        diffq = step // 4
        if code & 1:
            diffq += step // 2
        if code & 2:
            diffq += step
        if code & 4:
            valpred -= diffq
        else:
            valpred += diffq
        valpred = min(2047, max(-2048, valpred))
        index = min(31, max(0, index + indextab[code & 7]))
        total = (total + (valpred & 4095) + code) & 16777215
    return [total]


register(
    Workload(
        "adpcm_decode",
        "mediabench",
        "IMA ADPCM decoder with step tables",
        _ADPCM_SRC.replace("__ENCODE__", "0"),
        lambda scale: _adpcm_ref(scale, 0),
        default_scale=1500,
    )
)
register(
    Workload(
        "adpcm_encode",
        "mediabench",
        "IMA ADPCM encoder with step tables",
        _ADPCM_SRC.replace("__ENCODE__", "1"),
        lambda scale: _adpcm_ref(scale, 1),
        default_scale=1400,
    )
)
