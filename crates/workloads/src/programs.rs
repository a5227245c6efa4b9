//! Reusable warp-program state machines.
//!
//! Each GPGPU application in this crate is assembled from one (or a few) of
//! these program shapes, configured with its own sizes, data placement and
//! arithmetic. The shapes mirror how the original CUDA kernels touch memory:
//!
//! * [`MapProgram`] — per-item element-wise kernels (blackscholes,
//!   inversek2j, newtonraph, jmeint via index permutation),
//! * [`MatVecProgram`] — matrix-vector products in row-per-thread (strided,
//!   row-thrashing) or column-per-thread (coalesced) orientation (MVT, ATAX,
//!   BICG),
//! * [`MatmulProgram`] — tiled dense matrix multiply (GEMM, 2MM, 3MM),
//! * [`Stencil2DProgram`] — 2-D stencils over images (CONS as a 1-row
//!   special case, srad, meanfilter, laplacian),
//! * [`Stencil3DProgram`] — 3-D stencils over volumes (3DCONV, LPS),
//! * [`FwtProgram`] — in-place butterfly stages (FWT),
//! * [`ScanProgram`] — sequential block scan (SLA),
//! * [`ScpProgram`] — per-thread dot products over long vectors (SCP).

use lazydram_gpu::{LoadEmitter, Loader, OpBuf, Saver, SnapError, SnapResult, WarpProgram};

/// Threads per warp; fixed across the suite.
pub const LANES: usize = 32;

fn f32_addr(base: u64, index: usize) -> u64 {
    base + index as u64 * 4
}

// ---------------------------------------------------------------------------
// MapProgram
// ---------------------------------------------------------------------------

/// Configuration of a [`MapProgram`].
pub struct MapConfig {
    /// Input arrays as `(base_address, words_per_item)`.
    pub inputs: Vec<(u64, usize)>,
    /// Output arrays as `(base_address, words_per_item)`.
    pub outputs: Vec<(u64, usize)>,
    /// Total items in the launch.
    pub items: usize,
    /// Items each warp processes = `32 * iters_per_warp`.
    pub iters_per_warp: usize,
    /// ALU cycles per iteration.
    pub compute: u32,
    /// Iterations fetched per batched load (unrolled loop kept in flight by
    /// the scoreboard). 1 = strictly dependent iterations.
    pub load_batch: usize,
    /// Maps a logical item to the storage index used for *input* addressing
    /// (identity for streaming kernels, a permutation for jmeint-style
    /// irregular access). Outputs always use the logical index.
    pub index: fn(usize, usize) -> usize,
    /// Per-lane function: consumes the flattened input words of one item and
    /// appends the output words (must append exactly `Σ outputs.words`).
    pub func: fn(&[f32], &mut Vec<f32>),
}

enum MapPhase {
    Load,
    Compute,
    Store { output: usize, word: usize },
}

/// Element-wise map over items, 32 items per warp-iteration. All input words
/// of one iteration are fetched by a single batched load (the back-to-back
/// load instructions a real GPU keeps in flight via its scoreboard).
pub struct MapProgram {
    cfg: MapConfig,
    first_item: usize,
    iter: usize,
    phase: MapPhase,
    /// `true` while a load is in flight; its values are absorbed exactly once
    /// at the top of the next `next()` call.
    awaiting: bool,
    /// Collected input words, `[batch slot][word]`.
    in_vals: Vec<Vec<f32>>,
    /// Computed output words, `[batch slot][word]`.
    out_vals: Vec<Vec<f32>>,
    /// Active `(slot, lane, item)` triples of the current batch, rebuilt in
    /// place only when the batch advances.
    active: Vec<(usize, usize, usize)>,
    /// `iter` value `active` was computed for (`usize::MAX` = never).
    active_iter: usize,
}

impl MapProgram {
    /// Creates the program for `warp_id`.
    pub fn new(warp_id: usize, cfg: MapConfig) -> Self {
        let first_item = warp_id * LANES * cfg.iters_per_warp;
        let slots = LANES * cfg.load_batch.max(1);
        Self {
            cfg,
            first_item,
            iter: 0,
            phase: MapPhase::Load,
            awaiting: false,
            in_vals: vec![Vec::new(); slots],
            out_vals: vec![Vec::new(); slots],
            active: Vec::new(),
            active_iter: usize::MAX,
        }
    }

    /// Iterations covered by the current batch.
    fn batch(&self) -> std::ops::Range<usize> {
        let b = self.cfg.load_batch.max(1);
        self.iter..(self.iter + b).min(self.cfg.iters_per_warp)
    }

    /// Rebuilds `active` — the `(slot, lane, item)` triples of the current
    /// batch, where `slot` numbers the batch-local position — unless it is
    /// already valid for the current `iter`.
    fn refresh_active(&mut self) {
        if self.active_iter == self.iter {
            return;
        }
        self.active_iter = self.iter;
        self.active.clear();
        for (bi, it) in self.batch().enumerate() {
            let base = self.first_item + it * LANES;
            for lane in 0..LANES {
                let item = base + lane;
                if item < self.cfg.items {
                    self.active.push((bi * LANES + lane, lane, item));
                }
            }
        }
    }
}

impl WarpProgram for MapProgram {
    fn next(&mut self, loaded: &[f32], out: &mut OpBuf) {
        if self.awaiting {
            self.awaiting = false;
            // Values arrive in (input, word, slot) order.
            self.refresh_active();
            let Self { cfg, active, in_vals, .. } = self;
            let mut it = loaded.iter();
            for (_, words) in &cfg.inputs {
                for _w in 0..*words {
                    for &(slot, _, _) in active.iter() {
                        in_vals[slot].push(*it.next().expect("value per address"));
                    }
                }
            }
        }
        loop {
            if self.iter >= self.cfg.iters_per_warp {
                out.set_finished();
                return;
            }
            self.refresh_active();
            if self.active.is_empty() {
                out.set_finished();
                return;
            }
            match self.phase {
                MapPhase::Load => {
                    // Lanes are pushed one by one (the index map may
                    // scatter them); push-merging folds the contiguous
                    // stretches of an identity map into runs.
                    let mut load = out.begin_load();
                    for &(base, words) in &self.cfg.inputs {
                        for w in 0..words {
                            for &(_, _, item) in &self.active {
                                let idx = (self.cfg.index)(item, self.cfg.items);
                                load.push(f32_addr(base, idx * words + w));
                            }
                        }
                    }
                    self.phase = MapPhase::Compute;
                    self.awaiting = true;
                    return;
                }
                MapPhase::Compute => {
                    let iters = self.batch().len() as u32;
                    let Self { cfg, active, in_vals, out_vals, .. } = self;
                    for &(slot, _, _) in active.iter() {
                        out_vals[slot].clear();
                        (cfg.func)(&in_vals[slot], &mut out_vals[slot]);
                        in_vals[slot].clear();
                    }
                    self.phase = MapPhase::Store { output: 0, word: 0 };
                    if self.cfg.compute > 0 {
                        out.set_compute(self.cfg.compute * iters);
                        return;
                    }
                    continue;
                }
                MapPhase::Store { output, word } => {
                    if output >= self.cfg.outputs.len() {
                        self.iter += self.batch().len().max(1);
                        for v in &mut self.out_vals {
                            v.clear();
                        }
                        self.phase = MapPhase::Load;
                        continue;
                    }
                    let (base, words) = self.cfg.outputs[output];
                    let word_off: usize = self.cfg.outputs[..output].iter().map(|o| o.1).sum();
                    let writes = out.begin_store();
                    for &(slot, _, item) in &self.active {
                        writes.push((
                            f32_addr(base, item * words + word),
                            self.out_vals[slot][word_off + word],
                        ));
                    }
                    self.phase = if word + 1 < words {
                        MapPhase::Store { output, word: word + 1 }
                    } else {
                        MapPhase::Store { output: output + 1, word: 0 }
                    };
                    return;
                }
            }
        }
    }

    fn save_state(&self, s: &mut Saver) {
        s.usize("iter", self.iter);
        match self.phase {
            MapPhase::Load => s.u8("phase", 0),
            MapPhase::Compute => s.u8("phase", 1),
            MapPhase::Store { output, word } => {
                s.u8("phase", 2);
                s.usize("output", output);
                s.usize("word", word);
            }
        }
        s.bool("awaiting", self.awaiting);
        s.seq("in_vals", self.in_vals.len());
        for v in &self.in_vals {
            s.f32s("vals", v);
        }
        s.seq("out_vals", self.out_vals.len());
        for v in &self.out_vals {
            s.f32s("vals", v);
        }
    }

    fn load_state(&mut self, l: &mut Loader<'_>) -> SnapResult<()> {
        self.iter = l.usize("iter")?;
        self.phase = match l.u8("phase")? {
            0 => MapPhase::Load,
            1 => MapPhase::Compute,
            2 => MapPhase::Store { output: l.usize("output")?, word: l.usize("word")? },
            x => {
                return Err(SnapError::Malformed {
                    label: "phase".into(),
                    why: format!("unknown map phase {x}"),
                })
            }
        };
        self.awaiting = l.bool("awaiting")?;
        for (label, bufs) in [("in_vals", &mut self.in_vals), ("out_vals", &mut self.out_vals)] {
            let n = l.seq(label, 8)?;
            if n != bufs.len() {
                return Err(SnapError::Malformed {
                    label: label.into(),
                    why: format!("snapshot has {n} slots, program has {}", bufs.len()),
                });
            }
            for v in bufs.iter_mut() {
                l.f32s("vals", v)?;
            }
        }
        // Force a deterministic rebuild of the active-triple cache.
        self.active_iter = usize::MAX;
        self.active.clear();
        Ok(())
    }
}

/// Identity index map for [`MapConfig::index`].
pub fn identity_index(item: usize, _items: usize) -> usize {
    item
}

/// A cheap, stateless permutation (multiplicative hash) for irregular-access
/// kernels like jmeint. Bijective on `[0, items)` when `items` is a power of
/// two; otherwise collisions are tolerable (it only shapes addresses).
pub fn scrambled_index(item: usize, items: usize) -> usize {
    (item.wrapping_mul(0x9E37_79B1).wrapping_add(0x85EB_CA6B)) % items.max(1)
}

// ---------------------------------------------------------------------------
// MatVecProgram
// ---------------------------------------------------------------------------

/// Orientation of a [`MatVecProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatVecOrientation {
    /// Thread `t` computes `y[t] = Σ_j A[t][j] · x[j]`: lanes stride by one
    /// row each → 32 distinct lines per load (row-thrashing pattern).
    RowPerLane,
    /// Thread `t` computes `y[t] = Σ_i A[i][t] · x[i]`: lanes walk one row of
    /// `A` together → coalesced.
    ColPerLane,
}

/// Configuration of a [`MatVecProgram`].
#[derive(Debug, Clone, Copy)]
pub struct MatVecConfig {
    /// Base of the `n × n` matrix.
    pub a: u64,
    /// Base of the input vector (`n` words).
    pub x: u64,
    /// Base of the output vector (`n` words).
    pub y: u64,
    /// Matrix dimension.
    pub n: usize,
    /// Access orientation.
    pub orientation: MatVecOrientation,
    /// When `true`, accumulates into the existing `y` value (`y += A·x`).
    pub accumulate: bool,
}

/// Matrix-vector product; one output element per lane. Inner-product
/// iterations are fetched in batches of 32 `j`s per load (scoreboarded
/// back-to-back loads), so each lane pulls a whole line of `A` per batch in
/// the row-per-lane orientation.
pub struct MatVecProgram {
    cfg: MatVecConfig,
    first: usize,
    j: usize,
    acc: [f32; LANES],
    pending_compute: u32,
    state: MatVecState,
}

/// `j`s fetched per batched load.
const MV_BATCH: usize = 32;

enum MatVecState {
    Inner,
    LoadOld,
    Store,
}

impl MatVecProgram {
    /// Creates the program for `warp_id` (lanes cover elements
    /// `warp_id*32 .. warp_id*32+32`).
    pub fn new(warp_id: usize, cfg: MatVecConfig) -> Self {
        Self {
            cfg,
            first: warp_id * LANES,
            j: 0,
            acc: [0.0; LANES],
            pending_compute: 0,
            state: MatVecState::Inner,
        }
    }

    fn active(&self) -> usize {
        LANES.min(self.cfg.n.saturating_sub(self.first))
    }
}

impl WarpProgram for MatVecProgram {
    fn next(&mut self, loaded: &[f32], out: &mut OpBuf) {
        let active = self.active();
        if active == 0 {
            out.set_finished();
            return;
        }
        match self.state {
            MatVecState::Inner => {
                // Absorb previous batch: loaded = [x[j..j+b], A values
                // (j-major, lane-minor)].
                if !loaded.is_empty() {
                    let b = loaded.len() / (active + 1);
                    for jj in 0..b {
                        let xj = loaded[jj];
                        for lane in 0..active {
                            self.acc[lane] += loaded[b + jj * active + lane] * xj;
                        }
                    }
                    self.pending_compute = b as u32 * 2;
                }
                if self.pending_compute > 0 {
                    let c = self.pending_compute;
                    self.pending_compute = 0;
                    out.set_compute(c);
                    return;
                }
                if self.j >= self.cfg.n {
                    self.state = if self.cfg.accumulate {
                        MatVecState::LoadOld
                    } else {
                        MatVecState::Store
                    };
                    out.set_compute(1);
                    return;
                }
                let j0 = self.j;
                let b = MV_BATCH.min(self.cfg.n - j0);
                self.j += b;
                let n = self.cfg.n;
                let mut load = out.begin_load();
                load.run(f32_addr(self.cfg.x, j0), b);
                for jj in 0..b {
                    match self.cfg.orientation {
                        MatVecOrientation::RowPerLane => {
                            for lane in 0..active {
                                load.push(f32_addr(self.cfg.a, (self.first + lane) * n + j0 + jj));
                            }
                        }
                        MatVecOrientation::ColPerLane => {
                            load.run(f32_addr(self.cfg.a, (j0 + jj) * n + self.first), active);
                        }
                    }
                }
            }
            MatVecState::LoadOld => {
                self.state = MatVecState::Store;
                out.begin_load().run(f32_addr(self.cfg.y, self.first), active);
            }
            MatVecState::Store => {
                let writes = out.begin_store();
                for (lane, &acc) in self.acc.iter().enumerate().take(active) {
                    let old = if self.cfg.accumulate { loaded[lane] } else { 0.0 };
                    writes.push((f32_addr(self.cfg.y, self.first + lane), old + acc));
                }
                self.first = usize::MAX; // retire after this store
                self.j = 0;
            }
        }
    }

    fn save_state(&self, s: &mut Saver) {
        s.usize("first", self.first);
        s.usize("j", self.j);
        s.f32s("acc", &self.acc);
        s.u32("pending_compute", self.pending_compute);
        s.u8(
            "state",
            match self.state {
                MatVecState::Inner => 0,
                MatVecState::LoadOld => 1,
                MatVecState::Store => 2,
            },
        );
    }

    fn load_state(&mut self, l: &mut Loader<'_>) -> SnapResult<()> {
        self.first = l.usize("first")?;
        self.j = l.usize("j")?;
        l.f32_array("acc", &mut self.acc)?;
        self.pending_compute = l.u32("pending_compute")?;
        self.state = match l.u8("state")? {
            0 => MatVecState::Inner,
            1 => MatVecState::LoadOld,
            2 => MatVecState::Store,
            x => {
                return Err(SnapError::Malformed {
                    label: "state".into(),
                    why: format!("unknown matvec state {x}"),
                })
            }
        };
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// MatmulProgram
// ---------------------------------------------------------------------------

/// Configuration of a [`MatmulProgram`]: `C = α·(A × B)` over `n × n`
/// row-major matrices.
#[derive(Debug, Clone, Copy)]
pub struct MatmulConfig {
    /// Base of `A`.
    pub a: u64,
    /// Base of `B`.
    pub b: u64,
    /// Base of `C`.
    pub c: u64,
    /// Dimension (multiple of 32).
    pub n: usize,
    /// Scalar multiplier applied to each product (GEMM's α).
    pub alpha: f32,
}

/// Tiled matrix multiply: each warp produces one 1×32 strip of `C`,
/// fetching 8 `k`-iterations per batched load (8 lines of `B` plus the
/// matching `A` broadcast values in flight at once).
pub struct MatmulProgram {
    cfg: MatmulConfig,
    row: usize,
    col0: usize,
    k: usize,
    acc: [f32; LANES],
    /// Charge the FMA work of the absorbed batch before the next load.
    pending_compute: u32,
    done: bool,
}

/// `k`s fetched per batched load.
const MM_BATCH: usize = 8;

impl MatmulProgram {
    /// Creates the program computing strip `warp_id` (row-major strips).
    pub fn new(warp_id: usize, cfg: MatmulConfig) -> Self {
        let strips_per_row = cfg.n / LANES;
        Self {
            cfg,
            row: warp_id / strips_per_row,
            col0: (warp_id % strips_per_row) * LANES,
            k: 0,
            acc: [0.0; LANES],
            pending_compute: 0,
            done: false,
        }
    }
}

impl WarpProgram for MatmulProgram {
    fn next(&mut self, loaded: &[f32], out: &mut OpBuf) {
        if self.done {
            out.set_finished();
            return;
        }
        if !loaded.is_empty() {
            // loaded = [A[i, k..k+b], B (k-major, lane-minor)].
            let b = loaded.len() / (LANES + 1);
            for kk in 0..b {
                let a = loaded[kk];
                for lane in 0..LANES {
                    self.acc[lane] += a * loaded[b + kk * LANES + lane];
                }
            }
            // One FMA (plus addressing) per k of the absorbed batch.
            self.pending_compute = b as u32 * 2;
        }
        if self.pending_compute > 0 {
            let c = self.pending_compute;
            self.pending_compute = 0;
            out.set_compute(c);
            return;
        }
        let n = self.cfg.n;
        if self.k >= n {
            self.done = true;
            let alpha = self.cfg.alpha;
            let writes = out.begin_store();
            for lane in 0..LANES {
                writes.push((
                    f32_addr(self.cfg.c, self.row * n + self.col0 + lane),
                    alpha * self.acc[lane],
                ));
            }
            return;
        }
        let k0 = self.k;
        let b = MM_BATCH.min(n - k0);
        self.k += b;
        let mut load = out.begin_load();
        load.run(f32_addr(self.cfg.a, self.row * n + k0), b);
        for kk in 0..b {
            load.run(f32_addr(self.cfg.b, (k0 + kk) * n + self.col0), LANES);
        }
    }

    fn save_state(&self, s: &mut Saver) {
        s.usize("k", self.k);
        s.f32s("acc", &self.acc);
        s.u32("pending_compute", self.pending_compute);
        s.bool("done", self.done);
    }

    fn load_state(&mut self, l: &mut Loader<'_>) -> SnapResult<()> {
        self.k = l.usize("k")?;
        l.f32_array("acc", &mut self.acc)?;
        self.pending_compute = l.u32("pending_compute")?;
        self.done = l.bool("done")?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Stencil programs
// ---------------------------------------------------------------------------

/// Emits the 32 lanes of one stencil tap over the strip starting at column
/// `x0` of the row whose first word is `row` in `input`: lane `l` reads
/// column `x0 + l + dx`, clamped to `[0, w)`. An interior tap is one run;
/// a tap hanging over an image border goes lane by lane.
fn strip_lanes(load: &mut LoadEmitter<'_>, input: u64, row: usize, x0: usize, dx: i32, w: usize) {
    let first = x0 as i64 + i64::from(dx);
    if first >= 0 && first + LANES as i64 <= w as i64 {
        load.run(f32_addr(input, row + first as usize), LANES);
    } else {
        for lane in 0..LANES as i64 {
            let xx = (first + lane).clamp(0, w as i64 - 1) as usize;
            load.push(f32_addr(input, row + xx));
        }
    }
}

/// Configuration of a [`Stencil2DProgram`].
#[derive(Debug, Clone)]
pub struct Stencil2DConfig {
    /// Base of the input image (`w × h`, row-major).
    pub input: u64,
    /// Base of the output image.
    pub output: u64,
    /// Image width (multiple of 32).
    pub w: usize,
    /// Image height.
    pub h: usize,
    /// Taps as `(dy, dx, weight)`.
    pub taps: Vec<(i32, i32, f32)>,
    /// Extra ALU cycles per strip (beyond the weighted sum).
    pub compute: u32,
    /// Consecutive strips each warp processes.
    pub strips_per_warp: usize,
    /// Optional post-processing: `f(weighted_sum, center_value)`.
    pub post: Option<fn(f32, f32) -> f32>,
}

/// 2-D stencil: each strip is 32 consecutive pixels of one row. All taps of
/// all the warp's strips are fetched by one batched load (strip-major,
/// tap-major, lane-minor) — the unrolled, scoreboarded form of the real
/// kernels. Neighbor coordinates are clamped at image borders.
pub struct Stencil2DProgram {
    cfg: Stencil2DConfig,
    /// 0 = issue load, 1 = absorb + compute, 2 = store.
    stage: u8,
    sums: Vec<f32>,
    centers: Vec<f32>,
    /// In-bounds `(slot, y, x0)` strips; constant for the warp's lifetime.
    strips: Vec<(usize, usize, usize)>,
}

impl Stencil2DProgram {
    /// Creates the program for `warp_id`.
    pub fn new(warp_id: usize, cfg: Stencil2DConfig) -> Self {
        let first_strip = warp_id * cfg.strips_per_warp;
        let n = cfg.strips_per_warp * LANES;
        let strips_per_row = cfg.w / LANES;
        let strips = (0..cfg.strips_per_warp)
            .filter_map(|i| {
                let s = first_strip + i;
                let y = s / strips_per_row;
                (y < cfg.h).then(|| (i, y, (s % strips_per_row) * LANES))
            })
            .collect();
        Self {
            cfg,
            stage: 0,
            sums: vec![0.0; n],
            centers: vec![0.0; n],
            strips,
        }
    }
}

impl WarpProgram for Stencil2DProgram {
    fn next(&mut self, loaded: &[f32], out: &mut OpBuf) {
        if self.strips.is_empty() || self.stage > 2 {
            out.set_finished();
            return;
        }
        match self.stage {
            0 => {
                let (w, h) = (self.cfg.w, self.cfg.h);
                let mut load = out.begin_load();
                for &(_, y, x0) in &self.strips {
                    for &(dy, dx, _) in &self.cfg.taps {
                        let yy = (y as i64 + i64::from(dy)).clamp(0, h as i64 - 1) as usize;
                        strip_lanes(&mut load, self.cfg.input, yy * w, x0, dx, w);
                    }
                }
                self.stage = 1;
            }
            1 => {
                let ntaps = self.cfg.taps.len();
                for v in &mut self.sums {
                    *v = 0.0;
                }
                for (si, &(i, _, _)) in self.strips.iter().enumerate() {
                    for (t, &(dy, dx, wgt)) in self.cfg.taps.iter().enumerate() {
                        for lane in 0..LANES {
                            let v = loaded[(si * ntaps + t) * LANES + lane];
                            self.sums[i * LANES + lane] += wgt * v;
                            if dy == 0 && dx == 0 {
                                self.centers[i * LANES + lane] = v;
                            }
                        }
                    }
                }
                self.stage = 2;
                if self.cfg.compute > 0 {
                    out.set_compute(self.cfg.compute * self.strips.len() as u32);
                    return;
                }
                self.next(&[], out);
            }
            _ => {
                // Stage 2: emit all strips' results and retire.
                let writes = out.begin_store();
                for &(i, y, x0) in &self.strips {
                    for lane in 0..LANES {
                        let v = match self.cfg.post {
                            Some(post) => {
                                post(self.sums[i * LANES + lane], self.centers[i * LANES + lane])
                            }
                            None => self.sums[i * LANES + lane],
                        };
                        writes.push((f32_addr(self.cfg.output, y * self.cfg.w + x0 + lane), v));
                    }
                }
                self.stage = 3;
            }
        }
    }

    fn save_state(&self, s: &mut Saver) {
        s.u8("stage", self.stage);
        s.f32s("sums", &self.sums);
        s.f32s("centers", &self.centers);
    }

    fn load_state(&mut self, l: &mut Loader<'_>) -> SnapResult<()> {
        self.stage = l.u8("stage")?;
        l.f32_array("sums", &mut self.sums)?;
        l.f32_array("centers", &mut self.centers)?;
        Ok(())
    }
}

/// Configuration of a [`Stencil3DProgram`].
#[derive(Debug, Clone)]
pub struct Stencil3DConfig {
    /// Base of the input volume (`w × h × d`, x fastest).
    pub input: u64,
    /// Base of the output volume.
    pub output: u64,
    /// Width (multiple of 32).
    pub w: usize,
    /// Height.
    pub h: usize,
    /// Depth.
    pub d: usize,
    /// Taps as `(dz, dy, dx, weight)`.
    pub taps: Vec<(i32, i32, i32, f32)>,
    /// Consecutive strips each warp processes.
    pub strips_per_warp: usize,
}

/// 3-D stencil over a volume; strips are 32 consecutive x-positions; all of
/// the warp's strips and taps arrive in one batched load (strip-major,
/// tap-major, lane-minor).
pub struct Stencil3DProgram {
    cfg: Stencil3DConfig,
    stage: u8,
    sums: Vec<f32>,
    /// In-bounds `(slot, z, y, x0)` strips; constant for the warp's lifetime.
    strips: Vec<(usize, usize, usize, usize)>,
}

impl Stencil3DProgram {
    /// Creates the program for `warp_id`.
    pub fn new(warp_id: usize, cfg: Stencil3DConfig) -> Self {
        let first_strip = warp_id * cfg.strips_per_warp;
        let n = cfg.strips_per_warp * LANES;
        let per_row = cfg.w / LANES;
        let per_plane = per_row * cfg.h;
        let strips = (0..cfg.strips_per_warp)
            .filter_map(|i| {
                let s = first_strip + i;
                let z = s / per_plane;
                let rem = s % per_plane;
                (z < cfg.d).then(|| (i, z, rem / per_row, (rem % per_row) * LANES))
            })
            .collect();
        Self {
            cfg,
            stage: 0,
            sums: vec![0.0; n],
            strips,
        }
    }
}

impl WarpProgram for Stencil3DProgram {
    fn next(&mut self, loaded: &[f32], out: &mut OpBuf) {
        if self.strips.is_empty() || self.stage > 2 {
            out.set_finished();
            return;
        }
        match self.stage {
            0 => {
                let (w, h, d) = (self.cfg.w, self.cfg.h, self.cfg.d);
                let mut load = out.begin_load();
                for &(_, z, y, x0) in &self.strips {
                    for &(dz, dy, dx, _) in &self.cfg.taps {
                        let zz = (z as i64 + i64::from(dz)).clamp(0, d as i64 - 1) as usize;
                        let yy = (y as i64 + i64::from(dy)).clamp(0, h as i64 - 1) as usize;
                        strip_lanes(&mut load, self.cfg.input, (zz * h + yy) * w, x0, dx, w);
                    }
                }
                self.stage = 1;
            }
            1 => {
                let ntaps = self.cfg.taps.len();
                for v in &mut self.sums {
                    *v = 0.0;
                }
                for (si, &(i, _, _, _)) in self.strips.iter().enumerate() {
                    for (t, &(_, _, _, wgt)) in self.cfg.taps.iter().enumerate() {
                        for lane in 0..LANES {
                            self.sums[i * LANES + lane] +=
                                wgt * loaded[(si * ntaps + t) * LANES + lane];
                        }
                    }
                }
                self.stage = 2;
                out.set_compute(36 * self.strips.len() as u32);
            }
            _ => {
                let writes = out.begin_store();
                for &(i, z, y, x0) in &self.strips {
                    for lane in 0..LANES {
                        writes.push((
                            f32_addr(
                                self.cfg.output,
                                (z * self.cfg.h + y) * self.cfg.w + x0 + lane,
                            ),
                            self.sums[i * LANES + lane],
                        ));
                    }
                }
                self.stage = 3;
            }
        }
    }

    fn save_state(&self, s: &mut Saver) {
        s.u8("stage", self.stage);
        s.f32s("sums", &self.sums);
    }

    fn load_state(&mut self, l: &mut Loader<'_>) -> SnapResult<()> {
        self.stage = l.u8("stage")?;
        l.f32_array("sums", &mut self.sums)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// FwtProgram
// ---------------------------------------------------------------------------

/// Configuration of a [`FwtProgram`].
#[derive(Debug, Clone, Copy)]
pub struct FwtConfig {
    /// Base of the data array.
    pub data: u64,
    /// Elements per warp-local transform (power of two, ≥ 64).
    pub segment: usize,
}

/// In-place fast Walsh–Hadamard transform over one warp-local segment:
/// `log2(segment)` butterfly stages of global-memory loads and stores.
pub struct FwtProgram {
    cfg: FwtConfig,
    seg_base: usize,
    stride: usize,
    chunk: usize,
    /// `true` while a butterfly's load is in flight / being processed.
    pending: bool,
    /// Indices (a then b) of the in-flight load; refilled per butterfly.
    idx: Vec<usize>,
    vals: Vec<f32>,
    computing: bool,
}

impl FwtProgram {
    /// Creates the program for `warp_id` (segment `warp_id`).
    ///
    /// # Panics
    ///
    /// Panics unless `segment` is a power of two ≥ 64.
    pub fn new(warp_id: usize, cfg: FwtConfig) -> Self {
        assert!(cfg.segment.is_power_of_two() && cfg.segment >= 64);
        Self {
            cfg,
            seg_base: warp_id * cfg.segment,
            stride: 1,
            chunk: 0,
            pending: false,
            idx: Vec::new(),
            vals: Vec::new(),
            computing: false,
        }
    }

    fn fill_pair_indices(&mut self) {
        // Pairs p in [chunk*32, chunk*32+32): element index
        // i = 2*stride*(p / stride) + (p % stride); partner = i + stride.
        let h = self.stride;
        self.idx.clear();
        for lane in 0..LANES {
            let p = self.chunk * LANES + lane;
            let i = 2 * h * (p / h) + (p % h);
            self.idx.push(self.seg_base + i);
        }
        for lane in 0..LANES {
            let p = self.chunk * LANES + lane;
            let i = 2 * h * (p / h) + (p % h);
            self.idx.push(self.seg_base + i + h);
        }
    }
}

impl WarpProgram for FwtProgram {
    fn next(&mut self, loaded: &[f32], out: &mut OpBuf) {
        if self.pending && !self.computing {
            // Values just arrived: stash them and charge the butterfly ALU
            // work before the stores go out.
            self.vals.clear();
            self.vals.extend_from_slice(loaded);
            self.computing = true;
            out.set_compute(8);
            return;
        }
        if self.pending {
            self.pending = false;
            self.computing = false;
            // Butterfly: a' = a + b, b' = a - b.
            let writes = out.begin_store();
            for lane in 0..LANES {
                let a = self.vals[lane];
                let b = self.vals[LANES + lane];
                writes.push((f32_addr(self.cfg.data, self.idx[lane]), a + b));
            }
            for lane in 0..LANES {
                let a = self.vals[lane];
                let b = self.vals[LANES + lane];
                writes.push((f32_addr(self.cfg.data, self.idx[LANES + lane]), a - b));
            }
            // Advance to the next chunk / stage.
            self.chunk += 1;
            if self.chunk * LANES >= self.cfg.segment / 2 {
                self.chunk = 0;
                self.stride *= 2;
            }
            return;
        }
        if self.stride >= self.cfg.segment {
            out.set_finished();
            return;
        }
        self.fill_pair_indices();
        let mut load = out.begin_load();
        for &i in &self.idx {
            load.push(f32_addr(self.cfg.data, i));
        }
        self.pending = true;
    }

    fn save_state(&self, s: &mut Saver) {
        s.usize("stride", self.stride);
        s.usize("chunk", self.chunk);
        s.bool("pending", self.pending);
        s.bool("computing", self.computing);
        s.seq("idx", self.idx.len());
        for &i in &self.idx {
            s.usize("i", i);
        }
        s.f32s("vals", &self.vals);
    }

    fn load_state(&mut self, l: &mut Loader<'_>) -> SnapResult<()> {
        self.stride = l.usize("stride")?;
        self.chunk = l.usize("chunk")?;
        self.pending = l.bool("pending")?;
        self.computing = l.bool("computing")?;
        let n = l.seq("idx", 8)?;
        self.idx.clear();
        self.idx.reserve(n);
        for _ in 0..n {
            self.idx.push(l.usize("i")?);
        }
        l.f32s("vals", &mut self.vals)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// ScanProgram
// ---------------------------------------------------------------------------

/// Configuration of a [`ScanProgram`].
#[derive(Debug, Clone, Copy)]
pub struct ScanConfig {
    /// Base of the input array.
    pub input: u64,
    /// Base of the output array.
    pub output: u64,
    /// Elements scanned per warp (multiple of 32).
    pub segment: usize,
}

/// Sequential inclusive prefix sum over a warp-local segment (SLA-style
/// streaming access): 8 chunks of 32 elements are loaded per batch, scanned
/// with a running carry, and stored back.
pub struct ScanProgram {
    cfg: ScanConfig,
    base: usize,
    chunk: usize,
    carry: f32,
    pending: bool,
}

/// Chunks fetched per batched load.
const SCAN_BATCH: usize = 8;

impl ScanProgram {
    /// Creates the program for `warp_id`.
    pub fn new(warp_id: usize, cfg: ScanConfig) -> Self {
        Self {
            cfg,
            base: warp_id * cfg.segment,
            chunk: 0,
            carry: 0.0,
            pending: false,
        }
    }

    fn batch_elems(&self) -> usize {
        let left = self.cfg.segment.saturating_sub(self.chunk * LANES);
        left.min(SCAN_BATCH * LANES)
    }
}

impl WarpProgram for ScanProgram {
    fn next(&mut self, loaded: &[f32], out: &mut OpBuf) {
        if self.pending {
            self.pending = false;
            let mut acc = self.carry;
            let start = self.base + self.chunk * LANES;
            let writes = out.begin_store();
            for (i, &v) in loaded.iter().enumerate() {
                acc += v;
                writes.push((f32_addr(self.cfg.output, start + i), acc));
            }
            self.carry = acc;
            self.chunk += loaded.len().div_ceil(LANES);
            return;
        }
        let n = self.batch_elems();
        if n == 0 {
            out.set_finished();
            return;
        }
        let start = self.base + self.chunk * LANES;
        self.pending = true;
        out.begin_load().run(f32_addr(self.cfg.input, start), n);
    }

    fn save_state(&self, s: &mut Saver) {
        s.usize("chunk", self.chunk);
        s.f32("carry", self.carry);
        s.bool("pending", self.pending);
    }

    fn load_state(&mut self, l: &mut Loader<'_>) -> SnapResult<()> {
        self.chunk = l.usize("chunk")?;
        self.carry = l.f32("carry")?;
        self.pending = l.bool("pending")?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// ScpProgram
// ---------------------------------------------------------------------------

/// Configuration of a [`ScpProgram`].
#[derive(Debug, Clone, Copy)]
pub struct ScpConfig {
    /// Base of the first vector bundle (`pairs × veclen` words).
    pub a: u64,
    /// Base of the second vector bundle.
    pub b: u64,
    /// Base of the per-pair result array.
    pub out: u64,
    /// Words per vector.
    pub veclen: usize,
    /// Total pairs.
    pub pairs: usize,
}

/// Scalar products: lane `l` of warp `w` computes `dot(a[p], b[p])` for pair
/// `p = 32w + l`. Both whole vectors are fetched in one batched load — lanes
/// stride by `veclen` words, the uncoalesced pattern that makes SCP a
/// high-thrashing workload.
pub struct ScpProgram {
    cfg: ScpConfig,
    first_pair: usize,
    acc: [f32; LANES],
    state: u8,
}

impl ScpProgram {
    /// Creates the program for `warp_id`.
    pub fn new(warp_id: usize, cfg: ScpConfig) -> Self {
        Self {
            cfg,
            first_pair: warp_id * LANES,
            acc: [0.0; LANES],
            state: 0,
        }
    }

    fn active(&self) -> usize {
        LANES.min(self.cfg.pairs.saturating_sub(self.first_pair))
    }
}

impl WarpProgram for ScpProgram {
    fn next(&mut self, loaded: &[f32], out: &mut OpBuf) {
        let active = self.active();
        if active == 0 {
            out.set_finished();
            return;
        }
        match self.state {
            0 => {
                // Load a then b, lane-major (each lane's vector contiguous).
                self.state = 1;
                // The active lanes' vectors are adjacent, so each bundle
                // is one run.
                let v = self.cfg.veclen;
                let mut load = out.begin_load();
                for base in [self.cfg.a, self.cfg.b] {
                    load.run(f32_addr(base, self.first_pair * v), active * v);
                }
            }
            1 => {
                // Absorb: loaded = [a lane-major..., b lane-major...].
                let v = self.cfg.veclen;
                for lane in 0..active {
                    let mut acc = 0.0f32;
                    for j in 0..v {
                        acc += loaded[lane * v + j] * loaded[active * v + lane * v + j];
                    }
                    self.acc[lane] = acc;
                }
                self.state = 2;
                out.set_compute(self.cfg.veclen as u32 / 2 + 4);
            }
            2 => {
                self.state = 3;
                let writes = out.begin_store();
                for lane in 0..active {
                    writes.push((f32_addr(self.cfg.out, self.first_pair + lane), self.acc[lane]));
                }
            }
            _ => out.set_finished(),
        }
    }

    fn save_state(&self, s: &mut Saver) {
        s.f32s("acc", &self.acc);
        s.u8("state", self.state);
    }

    fn load_state(&mut self, l: &mut Loader<'_>) -> SnapResult<()> {
        l.f32_array("acc", &mut self.acc)?;
        self.state = l.u8("state")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydram_gpu::{run_warp_functional, MemoryImage};

    /// Runs one program functionally against an image.
    fn exec(prog: &mut dyn WarpProgram, image: &mut MemoryImage) {
        run_warp_functional(prog, image, &mut OpBuf::new(), &mut Vec::new());
    }

    #[test]
    fn map_program_computes_elementwise() {
        let mut img = MemoryImage::new();
        let a = img.alloc(64);
        let b = img.alloc(64);
        let out = img.alloc(64);
        for i in 0..64 {
            img.write_f32(a + i * 4, i as f32);
            img.write_f32(b + i * 4, 2.0);
        }
        for w in 0..1 {
            let mut p = MapProgram::new(
                w,
                MapConfig {
                    inputs: vec![(a, 1), (b, 1)],
                    outputs: vec![(out, 1)],
                    items: 64,
                    iters_per_warp: 2,
                    compute: 3,
                    load_batch: 1,
                    index: identity_index,
                    func: |inp, o| o.push(inp[0] * inp[1]),
                },
            );
            exec(&mut p, &mut img);
        }
        for i in 0..64u64 {
            assert_eq!(img.read_f32(out + i * 4), i as f32 * 2.0, "item {i}");
        }
    }

    #[test]
    fn map_program_multiword_items() {
        let mut img = MemoryImage::new();
        let a = img.alloc(96); // 32 items × 3 words
        let out = img.alloc(64); // 32 items × 2 words
        for i in 0..32 {
            for w in 0..3 {
                img.write_f32(a + (i * 3 + w) * 4, (i * 10 + w) as f32);
            }
        }
        let mut p = MapProgram::new(
            0,
            MapConfig {
                inputs: vec![(a, 3)],
                outputs: vec![(out, 2)],
                items: 32,
                iters_per_warp: 1,
                compute: 1,
                load_batch: 1,
                index: identity_index,
                func: |inp, o| {
                    o.push(inp[0] + inp[1]);
                    o.push(inp[2]);
                },
            },
        );
        exec(&mut p, &mut img);
        for i in 0..32u64 {
            assert_eq!(img.read_f32(out + (i * 2) * 4), (i * 10 + i * 10 + 1) as f32);
            assert_eq!(img.read_f32(out + (i * 2 + 1) * 4), (i * 10 + 2) as f32);
        }
    }

    #[test]
    fn map_program_partial_tail() {
        let mut img = MemoryImage::new();
        let a = img.alloc(40);
        let out = img.alloc(40);
        for i in 0..40 {
            img.write_f32(a + i * 4, 1.0 + i as f32);
        }
        for w in 0..2 {
            let mut p = MapProgram::new(
                w,
                MapConfig {
                    inputs: vec![(a, 1)],
                    outputs: vec![(out, 1)],
                    items: 40, // second warp has a partial iteration
                    iters_per_warp: 1,
                    compute: 0,
                    load_batch: 2,
                    index: identity_index,
                    func: |inp, o| o.push(-inp[0]),
                },
            );
            exec(&mut p, &mut img);
        }
        for i in 0..40u64 {
            assert_eq!(img.read_f32(out + i * 4), -(1.0 + i as f32));
        }
    }

    #[test]
    fn scrambled_index_stays_in_range() {
        for i in 0..1000 {
            assert!(scrambled_index(i, 1000) < 1000);
        }
        // Power-of-two sizes give a bijection.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1024 {
            seen.insert(scrambled_index(i, 1024));
        }
        assert_eq!(seen.len(), 1024);
    }

    fn reference_matvec(a: &[f32], x: &[f32], n: usize, transposed: bool) -> Vec<f32> {
        (0..n)
            .map(|t| {
                (0..n)
                    .map(|j| if transposed { a[j * n + t] * x[j] } else { a[t * n + j] * x[j] })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn matvec_row_per_lane_matches_reference() {
        let n = 64;
        let mut img = MemoryImage::new();
        let a = img.alloc(n * n);
        let x = img.alloc(n);
        let y = img.alloc(n);
        let av: Vec<f32> = (0..n * n).map(|i| ((i * 7 % 13) as f32) - 6.0).collect();
        let xv: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25).collect();
        img.write_slice(a, &av);
        img.write_slice(x, &xv);
        let cfg = MatVecConfig { a, x, y, n, orientation: MatVecOrientation::RowPerLane, accumulate: false };
        for w in 0..n / 32 {
            exec(&mut MatVecProgram::new(w, cfg), &mut img);
        }
        let expect = reference_matvec(&av, &xv, n, false);
        let got = img.read_slice(y, n);
        for i in 0..n {
            assert!((got[i] - expect[i]).abs() < 1e-3, "row {i}: {} vs {}", got[i], expect[i]);
        }
    }

    #[test]
    fn matvec_col_per_lane_is_transpose() {
        let n = 32;
        let mut img = MemoryImage::new();
        let a = img.alloc(n * n);
        let x = img.alloc(n);
        let y = img.alloc(n);
        let av: Vec<f32> = (0..n * n).map(|i| (i % 5) as f32).collect();
        let xv: Vec<f32> = (0..n).map(|_| 1.0).collect();
        img.write_slice(a, &av);
        img.write_slice(x, &xv);
        let cfg = MatVecConfig { a, x, y, n, orientation: MatVecOrientation::ColPerLane, accumulate: false };
        exec(&mut MatVecProgram::new(0, cfg), &mut img);
        let expect = reference_matvec(&av, &xv, n, true);
        assert_eq!(img.read_slice(y, n), expect);
    }

    #[test]
    fn matvec_accumulate_adds_to_existing() {
        let n = 32;
        let mut img = MemoryImage::new();
        let a = img.alloc(n * n);
        let x = img.alloc(n);
        let y = img.alloc(n);
        img.write_slice(a, &vec![1.0; n * n]);
        img.write_slice(x, &vec![1.0; n]);
        img.write_slice(y, &vec![100.0; n]);
        let cfg = MatVecConfig { a, x, y, n, orientation: MatVecOrientation::RowPerLane, accumulate: true };
        exec(&mut MatVecProgram::new(0, cfg), &mut img);
        assert_eq!(img.read_f32(y), 132.0);
    }

    #[test]
    fn matmul_matches_reference() {
        let n = 64;
        let mut img = MemoryImage::new();
        let a = img.alloc(n * n);
        let b = img.alloc(n * n);
        let c = img.alloc(n * n);
        let av: Vec<f32> = (0..n * n).map(|i| ((i % 7) as f32) - 3.0).collect();
        let bv: Vec<f32> = (0..n * n).map(|i| ((i % 5) as f32) * 0.5).collect();
        img.write_slice(a, &av);
        img.write_slice(b, &bv);
        let cfg = MatmulConfig { a, b, c, n, alpha: 1.0 };
        for w in 0..n * n / 32 {
            exec(&mut MatmulProgram::new(w, cfg), &mut img);
        }
        for i in [0usize, 17, 63] {
            for j in [0usize, 31, 45] {
                let expect: f32 = (0..n).map(|k| av[i * n + k] * bv[k * n + j]).sum();
                let got = img.read_f32(c + ((i * n + j) * 4) as u64);
                assert!((got - expect).abs() < 1e-2, "C[{i}][{j}]: {got} vs {expect}");
            }
        }
    }

    #[test]
    fn stencil2d_blur_matches_reference() {
        let (w, h) = (32usize, 4usize);
        let mut img = MemoryImage::new();
        let inp = img.alloc(w * h);
        let out = img.alloc(w * h);
        let data: Vec<f32> = (0..w * h).map(|i| (i % 11) as f32).collect();
        img.write_slice(inp, &data);
        let taps = vec![(0, -1, 0.25), (0, 0, 0.5), (0, 1, 0.25)];
        let cfg = Stencil2DConfig {
            input: inp,
            output: out,
            w,
            h,
            taps: taps.clone(),
            compute: 2,
            strips_per_warp: 1,
            post: None,
        };
        for warp in 0..h {
            exec(&mut Stencil2DProgram::new(warp, cfg.clone()), &mut img);
        }
        // Check an interior pixel and a clamped border pixel.
        let at = |x: i64, y: i64| {
            let xx = x.clamp(0, w as i64 - 1) as usize;
            let yy = y.clamp(0, h as i64 - 1) as usize;
            data[yy * w + xx]
        };
        for (x, y) in [(5i64, 1i64), (0, 0), (31, 3)] {
            let expect = 0.25 * at(x - 1, y) + 0.5 * at(x, y) + 0.25 * at(x + 1, y);
            let got = img.read_f32(out + ((y as usize * w + x as usize) * 4) as u64);
            assert!((got - expect).abs() < 1e-5, "({x},{y}): {got} vs {expect}");
        }
    }

    #[test]
    fn stencil2d_post_receives_center() {
        let (w, h) = (32usize, 1usize);
        let mut img = MemoryImage::new();
        let inp = img.alloc(w * h);
        let out = img.alloc(w * h);
        img.write_slice(inp, &vec![3.0; w]);
        let cfg = Stencil2DConfig {
            input: inp,
            output: out,
            w,
            h,
            taps: vec![(0, 0, 2.0)],
            compute: 0,
            strips_per_warp: 1,
            post: Some(|sum, center| sum + 100.0 * center),
        };
        exec(&mut Stencil2DProgram::new(0, cfg), &mut img);
        assert_eq!(img.read_f32(out), 306.0);
    }

    #[test]
    fn stencil3d_sums_neighbors() {
        let (w, h, d) = (32usize, 3usize, 3usize);
        let mut img = MemoryImage::new();
        let inp = img.alloc(w * h * d);
        let out = img.alloc(w * h * d);
        let data: Vec<f32> = (0..w * h * d).map(|i| i as f32).collect();
        img.write_slice(inp, &data);
        let cfg = Stencil3DConfig {
            input: inp,
            output: out,
            w,
            h,
            d,
            taps: vec![(-1, 0, 0, 1.0), (1, 0, 0, 1.0), (0, 0, 0, -2.0)],
            strips_per_warp: 1,
        };
        for warp in 0..h * d {
            exec(&mut Stencil3DProgram::new(warp, cfg.clone()), &mut img);
        }
        // Interior voxel (z=1, y=1, x=16): data[(0*3+1)*32+16] + data[(2*3+1)*32+16] - 2*center.
        let center = data[(3 + 1) * 32 + 16];
        let below = data[32 + 16];
        let above = data[(6 + 1) * 32 + 16];
        let got = img.read_f32(out + (((3 + 1) * 32 + 16) * 4) as u64);
        assert!((got - (below + above - 2.0 * center)).abs() < 1e-4);
    }

    #[test]
    fn fwt_segment_matches_reference() {
        let seg = 64usize;
        let mut img = MemoryImage::new();
        let data = img.alloc(seg * 2);
        let vals: Vec<f32> = (0..seg * 2).map(|i| ((i * 3 % 17) as f32) - 8.0).collect();
        img.write_slice(data, &vals);
        // Reference WHT of segment 1 (the second warp's segment).
        let mut reference: Vec<f32> = vals[seg..].to_vec();
        let mut h = 1;
        while h < seg {
            for i in (0..seg).step_by(2 * h) {
                for j in i..i + h {
                    let (a, b) = (reference[j], reference[j + h]);
                    reference[j] = a + b;
                    reference[j + h] = a - b;
                }
            }
            h *= 2;
        }
        for w in 0..2 {
            exec(&mut FwtProgram::new(w, FwtConfig { data, segment: seg }), &mut img);
        }
        let got = img.read_slice(data + (seg * 4) as u64, seg);
        for i in 0..seg {
            assert!((got[i] - reference[i]).abs() < 1e-3, "elt {i}: {} vs {}", got[i], reference[i]);
        }
    }

    #[test]
    fn scan_is_inclusive_prefix_sum_with_carry() {
        let seg = 96usize;
        let mut img = MemoryImage::new();
        let inp = img.alloc(seg);
        let out = img.alloc(seg);
        let vals: Vec<f32> = (0..seg).map(|i| (i % 3) as f32 + 1.0).collect();
        img.write_slice(inp, &vals);
        exec(&mut ScanProgram::new(0, ScanConfig { input: inp, output: out, segment: seg }), &mut img);
        let mut acc = 0.0;
        for (i, v) in vals.iter().enumerate() {
            acc += v;
            assert_eq!(img.read_f32(out + (i * 4) as u64), acc, "elt {i}");
        }
    }

    #[test]
    fn scp_computes_dot_products() {
        let veclen = 48usize;
        let pairs = 40usize; // second warp partially active
        let mut img = MemoryImage::new();
        let a = img.alloc(pairs * veclen);
        let b = img.alloc(pairs * veclen);
        let out = img.alloc(pairs);
        let av: Vec<f32> = (0..pairs * veclen).map(|i| ((i % 7) as f32) - 3.0).collect();
        let bv: Vec<f32> = (0..pairs * veclen).map(|i| ((i % 4) as f32) * 0.5).collect();
        img.write_slice(a, &av);
        img.write_slice(b, &bv);
        let cfg = ScpConfig { a, b, out, veclen, pairs };
        for w in 0..2 {
            exec(&mut ScpProgram::new(w, cfg), &mut img);
        }
        for p in [0usize, 31, 39] {
            let expect: f32 = (0..veclen).map(|j| av[p * veclen + j] * bv[p * veclen + j]).sum();
            let got = img.read_f32(out + (p * 4) as u64);
            assert!((got - expect).abs() < 1e-3, "pair {p}: {got} vs {expect}");
        }
    }
}
