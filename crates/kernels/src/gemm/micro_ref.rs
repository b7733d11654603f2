#![cfg(test)]
//! The microkernels as they stood before register tiling (commit
//! `40f87b1`), kept verbatim as test references: backward-by-data as one
//! accumulator per output element, backward-by-weights with four, forward
//! as 4 × 1 and 4 × 2 register blocks, all accumulating into a caller-zeroed
//! output over a list of panel pointers. `micro::tests` asserts the tiled
//! kernels reproduce them bit for bit on every ISA tier.

use super::micro::{Isa, PanelDims};

unsafe fn fwd_scalar(w_panels: &[*const f32], x_panels: &[*const f32], y: *mut f32, d: PanelDims) {
    let PanelDims { bn, bc, bk } = d;
    for p in 0..w_panels.len() {
        let w = w_panels[p];
        let x = x_panels[p];
        for r_n in 0..bn {
            let x_row = std::slice::from_raw_parts(x.add(r_n * bc), bc);
            let y_row = std::slice::from_raw_parts_mut(y.add(r_n * bk), bk);
            for (r_c, &xv) in x_row.iter().enumerate() {
                let w_row = std::slice::from_raw_parts(w.add(r_c * bk), bk);
                for (yv, &wv) in y_row.iter_mut().zip(w_row) {
                    *yv += xv * wv;
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fwd_avx2(w_panels: &[*const f32], x_panels: &[*const f32], y: *mut f32, d: PanelDims) {
    use std::arch::x86_64::*;
    let PanelDims { bn, bc, bk } = d;
    debug_assert_eq!(bk % 8, 0);
    for r_n in 0..bn {
        for kb in (0..bk).step_by(8) {
            let yp = y.add(r_n * bk + kb);
            let mut acc = _mm256_loadu_ps(yp);
            for p in 0..w_panels.len() {
                let w = w_panels[p];
                let x = x_panels[p].add(r_n * bc);
                for r_c in 0..bc {
                    let xv = _mm256_set1_ps(*x.add(r_c));
                    let wv = _mm256_loadu_ps(w.add(r_c * bk + kb));
                    acc = _mm256_fmadd_ps(xv, wv, acc);
                }
            }
            _mm256_storeu_ps(yp, acc);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fwd_avx512(w_panels: &[*const f32], x_panels: &[*const f32], y: *mut f32, d: PanelDims) {
    use std::arch::x86_64::*;
    let PanelDims { bn, bc, bk } = d;
    debug_assert_eq!(bk % 16, 0);
    // Register-block 4 minibatch rows x one 16-wide K vector: the C
    // accumulators stay in zmm registers across the whole batch reduction.
    let n4 = bn / 4 * 4;
    for kb in (0..bk).step_by(16) {
        let mut r_n = 0;
        while r_n < n4 {
            let y0 = y.add(r_n * bk + kb);
            let y1 = y.add((r_n + 1) * bk + kb);
            let y2 = y.add((r_n + 2) * bk + kb);
            let y3 = y.add((r_n + 3) * bk + kb);
            let mut a0 = _mm512_loadu_ps(y0);
            let mut a1 = _mm512_loadu_ps(y1);
            let mut a2 = _mm512_loadu_ps(y2);
            let mut a3 = _mm512_loadu_ps(y3);
            for p in 0..w_panels.len() {
                let w = w_panels[p];
                let x = x_panels[p];
                let x0 = x.add(r_n * bc);
                let x1 = x.add((r_n + 1) * bc);
                let x2 = x.add((r_n + 2) * bc);
                let x3 = x.add((r_n + 3) * bc);
                for r_c in 0..bc {
                    let wv = _mm512_loadu_ps(w.add(r_c * bk + kb));
                    a0 = _mm512_fmadd_ps(_mm512_set1_ps(*x0.add(r_c)), wv, a0);
                    a1 = _mm512_fmadd_ps(_mm512_set1_ps(*x1.add(r_c)), wv, a1);
                    a2 = _mm512_fmadd_ps(_mm512_set1_ps(*x2.add(r_c)), wv, a2);
                    a3 = _mm512_fmadd_ps(_mm512_set1_ps(*x3.add(r_c)), wv, a3);
                }
            }
            _mm512_storeu_ps(y0, a0);
            _mm512_storeu_ps(y1, a1);
            _mm512_storeu_ps(y2, a2);
            _mm512_storeu_ps(y3, a3);
            r_n += 4;
        }
        // Remainder rows.
        while r_n < bn {
            let yp = y.add(r_n * bk + kb);
            let mut acc = _mm512_loadu_ps(yp);
            for p in 0..w_panels.len() {
                let w = w_panels[p];
                let x = x_panels[p].add(r_n * bc);
                for r_c in 0..bc {
                    let wv = _mm512_loadu_ps(w.add(r_c * bk + kb));
                    acc = _mm512_fmadd_ps(_mm512_set1_ps(*x.add(r_c)), wv, acc);
                }
            }
            _mm512_storeu_ps(yp, acc);
            r_n += 1;
        }
    }
}

/// Widened AVX-512 forward: 4 minibatch rows × **2** 16-wide K vectors per
/// register block (8 zmm accumulators vs 4), halving the number of
/// X-broadcasts per FMA. Each output element sees exactly the same FMA
/// chain (`p` outer, `r_c` inner) as [`fwd_avx512`], so the result
/// is **bitwise identical** — this is a register-pressure optimization, not
/// a reassociation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fwd_avx512_x2(
    w_panels: &[*const f32],
    x_panels: &[*const f32],
    y: *mut f32,
    d: PanelDims,
) {
    use std::arch::x86_64::*;
    let PanelDims { bn, bc, bk } = d;
    debug_assert_eq!(bk % 32, 0);
    let n4 = bn / 4 * 4;
    for kb in (0..bk).step_by(32) {
        let mut r_n = 0;
        while r_n < n4 {
            let y0 = y.add(r_n * bk + kb);
            let y1 = y.add((r_n + 1) * bk + kb);
            let y2 = y.add((r_n + 2) * bk + kb);
            let y3 = y.add((r_n + 3) * bk + kb);
            let mut a0l = _mm512_loadu_ps(y0);
            let mut a0h = _mm512_loadu_ps(y0.add(16));
            let mut a1l = _mm512_loadu_ps(y1);
            let mut a1h = _mm512_loadu_ps(y1.add(16));
            let mut a2l = _mm512_loadu_ps(y2);
            let mut a2h = _mm512_loadu_ps(y2.add(16));
            let mut a3l = _mm512_loadu_ps(y3);
            let mut a3h = _mm512_loadu_ps(y3.add(16));
            for p in 0..w_panels.len() {
                let w = w_panels[p];
                let x = x_panels[p];
                let x0 = x.add(r_n * bc);
                let x1 = x.add((r_n + 1) * bc);
                let x2 = x.add((r_n + 2) * bc);
                let x3 = x.add((r_n + 3) * bc);
                for r_c in 0..bc {
                    let wl = _mm512_loadu_ps(w.add(r_c * bk + kb));
                    let wh = _mm512_loadu_ps(w.add(r_c * bk + kb + 16));
                    let b0 = _mm512_set1_ps(*x0.add(r_c));
                    let b1 = _mm512_set1_ps(*x1.add(r_c));
                    let b2 = _mm512_set1_ps(*x2.add(r_c));
                    let b3 = _mm512_set1_ps(*x3.add(r_c));
                    a0l = _mm512_fmadd_ps(b0, wl, a0l);
                    a0h = _mm512_fmadd_ps(b0, wh, a0h);
                    a1l = _mm512_fmadd_ps(b1, wl, a1l);
                    a1h = _mm512_fmadd_ps(b1, wh, a1h);
                    a2l = _mm512_fmadd_ps(b2, wl, a2l);
                    a2h = _mm512_fmadd_ps(b2, wh, a2h);
                    a3l = _mm512_fmadd_ps(b3, wl, a3l);
                    a3h = _mm512_fmadd_ps(b3, wh, a3h);
                }
            }
            _mm512_storeu_ps(y0, a0l);
            _mm512_storeu_ps(y0.add(16), a0h);
            _mm512_storeu_ps(y1, a1l);
            _mm512_storeu_ps(y1.add(16), a1h);
            _mm512_storeu_ps(y2, a2l);
            _mm512_storeu_ps(y2.add(16), a2h);
            _mm512_storeu_ps(y3, a3l);
            _mm512_storeu_ps(y3.add(16), a3h);
            r_n += 4;
        }
        // Remainder rows: 1 row × 2 K vectors.
        while r_n < bn {
            let yp = y.add(r_n * bk + kb);
            let mut al = _mm512_loadu_ps(yp);
            let mut ah = _mm512_loadu_ps(yp.add(16));
            for p in 0..w_panels.len() {
                let w = w_panels[p];
                let x = x_panels[p].add(r_n * bc);
                for r_c in 0..bc {
                    let b = _mm512_set1_ps(*x.add(r_c));
                    al = _mm512_fmadd_ps(b, _mm512_loadu_ps(w.add(r_c * bk + kb)), al);
                    ah = _mm512_fmadd_ps(b, _mm512_loadu_ps(w.add(r_c * bk + kb + 16)), ah);
                }
            }
            _mm512_storeu_ps(yp, al);
            _mm512_storeu_ps(yp.add(16), ah);
            r_n += 1;
        }
    }
}

unsafe fn bwd_data_scalar(
    w_panels: &[*const f32],
    dy_panels: &[*const f32],
    dx: *mut f32,
    d: PanelDims,
) {
    let PanelDims { bn, bc, bk } = d;
    for p in 0..w_panels.len() {
        let w = w_panels[p];
        let dy = dy_panels[p];
        for r_n in 0..bn {
            let dy_row = std::slice::from_raw_parts(dy.add(r_n * bk), bk);
            let dx_row = std::slice::from_raw_parts_mut(dx.add(r_n * bc), bc);
            for (r_c, dxv) in dx_row.iter_mut().enumerate() {
                let w_row = std::slice::from_raw_parts(w.add(r_c * bk), bk);
                let mut acc = 0.0f32;
                for (&dyv, &wv) in dy_row.iter().zip(w_row) {
                    acc += dyv * wv;
                }
                *dxv += acc;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn bwd_data_avx2(
    w_panels: &[*const f32],
    dy_panels: &[*const f32],
    dx: *mut f32,
    d: PanelDims,
) {
    use std::arch::x86_64::*;
    let PanelDims { bn, bc, bk } = d;
    for r_n in 0..bn {
        for r_c in 0..bc {
            let mut acc = _mm256_setzero_ps();
            for p in 0..w_panels.len() {
                let w = w_panels[p].add(r_c * bk);
                let dy = dy_panels[p].add(r_n * bk);
                for kb in (0..bk).step_by(8) {
                    acc = _mm256_fmadd_ps(
                        _mm256_loadu_ps(dy.add(kb)),
                        _mm256_loadu_ps(w.add(kb)),
                        acc,
                    );
                }
            }
            // Horizontal sum of 8 lanes.
            let hi = _mm256_extractf128_ps::<1>(acc);
            let lo = _mm256_castps256_ps128(acc);
            let s = _mm_add_ps(hi, lo);
            let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_add_ss(s, _mm_shuffle_ps::<1>(s, s));
            *dx.add(r_n * bc + r_c) += _mm_cvtss_f32(s);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn bwd_data_avx512(
    w_panels: &[*const f32],
    dy_panels: &[*const f32],
    dx: *mut f32,
    d: PanelDims,
) {
    use std::arch::x86_64::*;
    let PanelDims { bn, bc, bk } = d;
    for r_n in 0..bn {
        for r_c in 0..bc {
            let mut acc = _mm512_setzero_ps();
            for p in 0..w_panels.len() {
                let w = w_panels[p].add(r_c * bk);
                let dy = dy_panels[p].add(r_n * bk);
                for kb in (0..bk).step_by(16) {
                    acc = _mm512_fmadd_ps(
                        _mm512_loadu_ps(dy.add(kb)),
                        _mm512_loadu_ps(w.add(kb)),
                        acc,
                    );
                }
            }
            *dx.add(r_n * bc + r_c) += _mm512_reduce_add_ps(acc);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn bwd_data_relu_avx2(
    w_panels: &[*const f32],
    dy_panels: &[*const f32],
    dx: *mut f32,
    mask: *const f32,
    d: PanelDims,
) {
    use std::arch::x86_64::*;
    let PanelDims { bn, bc, bk } = d;
    for r_n in 0..bn {
        for r_c in 0..bc {
            let idx = r_n * bc + r_c;
            if *mask.add(idx) <= 0.0 {
                *dx.add(idx) = 0.0;
                continue;
            }
            let mut acc = _mm256_setzero_ps();
            for p in 0..w_panels.len() {
                let w = w_panels[p].add(r_c * bk);
                let dy = dy_panels[p].add(r_n * bk);
                for kb in (0..bk).step_by(8) {
                    acc = _mm256_fmadd_ps(
                        _mm256_loadu_ps(dy.add(kb)),
                        _mm256_loadu_ps(w.add(kb)),
                        acc,
                    );
                }
            }
            let hi = _mm256_extractf128_ps::<1>(acc);
            let lo = _mm256_castps256_ps128(acc);
            let s = _mm_add_ps(hi, lo);
            let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_add_ss(s, _mm_shuffle_ps::<1>(s, s));
            *dx.add(idx) += _mm_cvtss_f32(s);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn bwd_data_relu_avx512(
    w_panels: &[*const f32],
    dy_panels: &[*const f32],
    dx: *mut f32,
    mask: *const f32,
    d: PanelDims,
) {
    use std::arch::x86_64::*;
    let PanelDims { bn, bc, bk } = d;
    for r_n in 0..bn {
        for r_c in 0..bc {
            let idx = r_n * bc + r_c;
            if *mask.add(idx) <= 0.0 {
                *dx.add(idx) = 0.0;
                continue;
            }
            let mut acc = _mm512_setzero_ps();
            for p in 0..w_panels.len() {
                let w = w_panels[p].add(r_c * bk);
                let dy = dy_panels[p].add(r_n * bk);
                for kb in (0..bk).step_by(16) {
                    acc = _mm512_fmadd_ps(
                        _mm512_loadu_ps(dy.add(kb)),
                        _mm512_loadu_ps(w.add(kb)),
                        acc,
                    );
                }
            }
            *dx.add(idx) += _mm512_reduce_add_ps(acc);
        }
    }
}

unsafe fn bwd_wt_scalar(
    x_panels: &[*const f32],
    dy_panels: &[*const f32],
    dw: *mut f32,
    d: PanelDims,
) {
    let PanelDims { bn, bc, bk } = d;
    for p in 0..x_panels.len() {
        let x = x_panels[p];
        let dy = dy_panels[p];
        for r_n in 0..bn {
            let x_row = std::slice::from_raw_parts(x.add(r_n * bc), bc);
            let dy_row = std::slice::from_raw_parts(dy.add(r_n * bk), bk);
            for (r_c, &xv) in x_row.iter().enumerate() {
                let dw_row = std::slice::from_raw_parts_mut(dw.add(r_c * bk), bk);
                for (dwv, &dyv) in dw_row.iter_mut().zip(dy_row) {
                    *dwv += xv * dyv;
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn bwd_wt_avx2(
    x_panels: &[*const f32],
    dy_panels: &[*const f32],
    dw: *mut f32,
    d: PanelDims,
) {
    use std::arch::x86_64::*;
    let PanelDims { bn, bc, bk } = d;
    for r_c in 0..bc {
        for kb in (0..bk).step_by(8) {
            let dwp = dw.add(r_c * bk + kb);
            let mut acc = _mm256_loadu_ps(dwp);
            for p in 0..x_panels.len() {
                let x = x_panels[p];
                let dy = dy_panels[p];
                for r_n in 0..bn {
                    acc = _mm256_fmadd_ps(
                        _mm256_set1_ps(*x.add(r_n * bc + r_c)),
                        _mm256_loadu_ps(dy.add(r_n * bk + kb)),
                        acc,
                    );
                }
            }
            _mm256_storeu_ps(dwp, acc);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn bwd_wt_avx512(
    x_panels: &[*const f32],
    dy_panels: &[*const f32],
    dw: *mut f32,
    d: PanelDims,
) {
    use std::arch::x86_64::*;
    let PanelDims { bn, bc, bk } = d;
    let c4 = bc / 4 * 4;
    for kb in (0..bk).step_by(16) {
        let mut r_c = 0;
        while r_c < c4 {
            let p0 = dw.add(r_c * bk + kb);
            let p1 = dw.add((r_c + 1) * bk + kb);
            let p2 = dw.add((r_c + 2) * bk + kb);
            let p3 = dw.add((r_c + 3) * bk + kb);
            let mut a0 = _mm512_loadu_ps(p0);
            let mut a1 = _mm512_loadu_ps(p1);
            let mut a2 = _mm512_loadu_ps(p2);
            let mut a3 = _mm512_loadu_ps(p3);
            for p in 0..x_panels.len() {
                let x = x_panels[p];
                let dy = dy_panels[p];
                for r_n in 0..bn {
                    let dyv = _mm512_loadu_ps(dy.add(r_n * bk + kb));
                    let xr = x.add(r_n * bc + r_c);
                    a0 = _mm512_fmadd_ps(_mm512_set1_ps(*xr), dyv, a0);
                    a1 = _mm512_fmadd_ps(_mm512_set1_ps(*xr.add(1)), dyv, a1);
                    a2 = _mm512_fmadd_ps(_mm512_set1_ps(*xr.add(2)), dyv, a2);
                    a3 = _mm512_fmadd_ps(_mm512_set1_ps(*xr.add(3)), dyv, a3);
                }
            }
            _mm512_storeu_ps(p0, a0);
            _mm512_storeu_ps(p1, a1);
            _mm512_storeu_ps(p2, a2);
            _mm512_storeu_ps(p3, a3);
            r_c += 4;
        }
        while r_c < bc {
            let dwp = dw.add(r_c * bk + kb);
            let mut acc = _mm512_loadu_ps(dwp);
            for p in 0..x_panels.len() {
                let x = x_panels[p];
                let dy = dy_panels[p];
                for r_n in 0..bn {
                    acc = _mm512_fmadd_ps(
                        _mm512_set1_ps(*x.add(r_n * bc + r_c)),
                        _mm512_loadu_ps(dy.add(r_n * bk + kb)),
                        acc,
                    );
                }
            }
            _mm512_storeu_ps(dwp, acc);
            r_c += 1;
        }
    }
}
/// The old `brgemm_fwd` dispatch.
pub(super) unsafe fn fwd(
    isa: Isa,
    w_panels: &[*const f32],
    x_panels: &[*const f32],
    y: *mut f32,
    d: PanelDims,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if d.bk.is_multiple_of(32) => fwd_avx512_x2(w_panels, x_panels, y, d),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if d.bk.is_multiple_of(16) => fwd_avx512(w_panels, x_panels, y, d),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 if d.bk.is_multiple_of(8) => fwd_avx2(w_panels, x_panels, y, d),
        _ => fwd_scalar(w_panels, x_panels, y, d),
    }
}

/// The old `brgemm_bwd_data` / `brgemm_bwd_data_relu` dispatch.
pub(super) unsafe fn bwd_data(
    isa: Isa,
    w_panels: &[*const f32],
    dy_panels: &[*const f32],
    dx: *mut f32,
    mask: Option<*const f32>,
    d: PanelDims,
) {
    match (isa, mask) {
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx512, None) if d.bk.is_multiple_of(16) => {
            bwd_data_avx512(w_panels, dy_panels, dx, d)
        }
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx512, Some(m)) if d.bk.is_multiple_of(16) => {
            bwd_data_relu_avx512(w_panels, dy_panels, dx, m, d)
        }
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2 | Isa::Avx512, None) if d.bk.is_multiple_of(8) => {
            bwd_data_avx2(w_panels, dy_panels, dx, d)
        }
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2 | Isa::Avx512, Some(m)) if d.bk.is_multiple_of(8) => {
            bwd_data_relu_avx2(w_panels, dy_panels, dx, m, d)
        }
        _ => {
            bwd_data_scalar(w_panels, dy_panels, dx, d);
            if let Some(m) = mask {
                for i in 0..d.bn * d.bc {
                    if *m.add(i) <= 0.0 {
                        *dx.add(i) = 0.0;
                    }
                }
            }
        }
    }
}

/// The old `brgemm_bwd_wt` dispatch.
pub(super) unsafe fn bwd_wt(
    isa: Isa,
    x_panels: &[*const f32],
    dy_panels: &[*const f32],
    dw: *mut f32,
    d: PanelDims,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if d.bk.is_multiple_of(16) => bwd_wt_avx512(x_panels, dy_panels, dw, d),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 if d.bk.is_multiple_of(8) => {
            bwd_wt_avx2(x_panels, dy_panels, dw, d)
        }
        _ => bwd_wt_scalar(x_panels, dy_panels, dw, d),
    }
}
