//! Long short-term memory layer.
//!
//! The paper's second NMR model analyses the time series of spectra with
//! an LSTM of 32 units over five timesteps (§III.B.2/3). With a
//! 1700-point spectrum per timestep, the layer holds
//! `4·32·(1700 + 32 + 1) = 221 824` parameters; a Dense(4) head adds 132
//! for the paper's exact total of 221 956.
//!
//! [`FrozenLstm`] is the one LSTM recurrence in the workspace: [`Lstm`]
//! wraps it with gradients and forward caches for training, and
//! `FrozenPlan` serves it on the exported weights, with its buffers in
//! the plan's `Scratch` arena.

use rand_chacha::ChaCha8Rng;

use crate::init::Init;
use crate::layers::{import_into, Layer, LayerSummary};
use crate::{Activation, NeuralError};

/// Rows per input-projection tile: one 256-bit vector of `f32`.
const LANES: usize = 8;
/// Gate rows per input-projection tile; `4·units` is always a multiple.
const ROWS: usize = 4;
/// Features per step of the projection tile's loop.
const UNROLL: usize = 4;

/// The inference half of an LSTM: its shape and its weights as exported.
/// Gate order in the stacked weight matrices is `[i, f, g, o]`.
#[derive(Debug, Clone)]
pub(crate) struct FrozenLstm {
    pub(crate) features: usize,
    pub(crate) units: usize,
    pub(crate) timesteps: usize,
    /// Input weights `W`, shape `4*units × features`.
    pub(crate) w: Vec<f32>,
    /// Recurrent weights `U`, shape `4*units × units`.
    pub(crate) u: Vec<f32>,
    /// Bias, `4*units`.
    pub(crate) b: Vec<f32>,
}

/// An LSTM over a fixed-length sequence, returning the last hidden state.
///
/// Input layout: `timesteps × features`, flattened time-major
/// (`input[t * features + d]`). Output: the final hidden state (`units`
/// values). The forget-gate slice of the bias is initialized to 1.0.
#[derive(Debug, Clone)]
pub struct Lstm {
    frozen: FrozenLstm,
    grad_w: Vec<f32>,
    grad_u: Vec<f32>,
    grad_b: Vec<f32>,
    // Forward caches, one entry per timestep.
    cached_input: Vec<f32>,
    cached_gates: Vec<f32>,  // post-nonlinearity gates, t * 4*units
    cached_cell: Vec<f32>,   // c_t, t * units
    cached_hidden: Vec<f32>, // h_t, t * units
}

/// The windows of one inference call, each `timesteps × features` long.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Windows<'a> {
    /// Windows laid end to end in one block, as a plan batch holds them.
    Block(&'a [f32]),
    /// One slice per window.
    Slices(&'a [&'a [f32]]),
}

impl<'a> Windows<'a> {
    /// Row `r` of the call: timestep `r % timesteps` of window
    /// `r / timesteps`.
    fn row(self, r: usize, features: usize, timesteps: usize) -> Option<&'a [f32]> {
        match self {
            Windows::Block(data) => data.get(r * features..)?.get(..features),
            Windows::Slices(windows) => windows
                .get(r.checked_div(timesteps)?)?
                .get(r.checked_rem(timesteps)? * features..)?
                .get(..features),
        }
    }
}

/// The timestep rows of one call, numbered so that each distinct row
/// goes through `W` once. [`LstmBuffers::ensure`] sizes the buffers, so
/// that filling them never allocates.
#[derive(Debug, Default)]
struct Rows {
    /// Distinct rows in first-seen order, as row numbers of the call (see
    /// [`Windows::row`]); the first `distinct_len` are live.
    distinct: Vec<usize>,
    distinct_len: usize,
    /// Per row of the call, the index of its row in `distinct`.
    ids: Vec<usize>,
    /// `W·x` of the distinct rows, `4·units` values per row.
    wx: Vec<f32>,
}

impl Rows {
    /// Numbers the first `rows` rows of the call, forgetting every row of
    /// an earlier call. A row takes the index of an equal row among the
    /// `timesteps` rows before it, if there is one: that is where sliding
    /// windows keep their predecessor's rows and plateau-repeat windows
    /// their repeats. Rows are equal only if every value is equal by
    /// `to_bits`; the same slice (pointer and length) is equal without
    /// comparing values, which is how windows that are views of one row
    /// buffer match. The recent ids never hold two equal rows, so the
    /// first match is the only one.
    fn number(&mut self, windows: Windows<'_>, rows: usize, features: usize, timesteps: usize) {
        self.distinct_len = 0;
        for r in 0..rows {
            let x = windows.row(r, features, timesteps).unwrap_or_default();
            let recent = self.ids.get(r.saturating_sub(timesteps)..r).unwrap_or_default();
            let found = recent.iter().copied().find(|&id| {
                let seen = self.distinct.get(id).and_then(|&s| windows.row(s, features, timesteps));
                seen.is_some_and(|y| std::ptr::eq(y, x) || same_bits(y, x))
            });
            let id = found.unwrap_or(self.distinct_len);
            if id == self.distinct_len {
                let Some(slot) = self.distinct.get_mut(id) else { return };
                *slot = r;
                self.distinct_len += 1;
            }
            let Some(slot) = self.ids.get_mut(r) else { return };
            *slot = id;
        }
    }
}

/// Whether two rows hold the same bits, value by value (so `0.0` and
/// `-0.0` differ). Blocks of 16 values are compared without an early
/// exit inside, so each block is a vector compare.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    fn block_eq(x: &[f32], y: &[f32]) -> bool {
        x.iter()
            .zip(y)
            .fold(true, |eq, (p, q)| eq & (p.to_bits() == q.to_bits()))
    }
    let ((xs, x_tail), (ys, y_tail)) = (a.as_chunks::<16>(), b.as_chunks::<16>());
    a.len() == b.len()
        && block_eq(x_tail, y_tail)
        && xs.iter().zip(ys).all(|(x, y)| block_eq(x, y))
}

/// The buffers of LSTM inference: the row table, one transposed input
/// tile and the state of `LANES` windows. A plan keeps one set in its
/// `Scratch` arena for every call; `Lstm` makes a fresh set per call.
#[derive(Debug, Default)]
pub(crate) struct LstmBuffers {
    rows: Rows,
    /// One tile of input rows transposed to `features × LANES`.
    tile: Vec<[f32; LANES]>,
    state: State,
}

/// Hidden state, cell state and gate block of `LANES` windows, one
/// window per lane.
#[derive(Debug, Default)]
struct State {
    h: Vec<[f32; LANES]>,
    c: Vec<[f32; LANES]>,
    z: Vec<[f32; LANES]>,
}

impl LstmBuffers {
    /// Grows the buffers (never shrinks) to fit one call of `lstm` over
    /// `windows` windows. Returns whether any buffer grew.
    pub(crate) fn ensure(&mut self, lstm: &FrozenLstm, windows: usize) -> bool {
        fn grow<T: Clone + Default>(buf: &mut Vec<T>, want: usize) -> bool {
            let short = buf.len() < want;
            if short {
                buf.resize(want, T::default());
            }
            short
        }
        let (rows, width) = (windows * lstm.timesteps, 4 * lstm.units);
        [
            grow(&mut self.rows.distinct, rows),
            grow(&mut self.rows.ids, rows),
            grow(&mut self.rows.wx, rows * width),
            grow(&mut self.tile, lstm.features),
            grow(&mut self.state.h, lstm.units),
            grow(&mut self.state.c, lstm.units),
            grow(&mut self.state.z, width),
        ]
        .contains(&true)
    }
}

/// Where [`recur`] records its first window's states, `t`-major, as
/// `Lstm::backward` needs them.
pub(crate) struct Trace<'a> {
    gates: &'a mut [f32],
    cell: &'a mut [f32],
    hidden: &'a mut [f32],
}

impl Trace<'_> {
    /// Records lane 0 of timestep `t`: the activated gates left in `z`,
    /// the cells and the hidden states.
    fn record(&mut self, t: usize, z: &[[f32; LANES]], c: &[[f32; LANES]], h: &[[f32; LANES]]) {
        for (dst, src) in [(&mut *self.gates, z), (&mut *self.cell, c), (&mut *self.hidden, h)] {
            let row = dst.get_mut(t * src.len()..).unwrap_or_default();
            for (d, s) in row.iter_mut().zip(src) {
                *d = s[0];
            }
        }
    }
}

/// One `ROWS × LANES` tile of `W·x`: the `ROWS` gate rows in `w` (each
/// `x.len()` long) against `LANES` input rows held transposed in `x`.
///
/// The tile runs `ROWS × LANES` independent accumulators instead of one
/// latency-bound chain. Each still starts at `0.0` and adds `w·x` in
/// ascending feature order with a separate multiply and add: the same
/// IEEE operations as a per-row dot product. The loop takes `UNROLL`
/// features per step in the source, so its body holds `ROWS · UNROLL`
/// packed multiplies whatever the compiler's own unrolling decides.
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
fn project_tile(w: &[f32], x: &[[f32; LANES]]) -> [[f32; LANES]; ROWS] {
    let mut acc = [[0.0f32; LANES]; ROWS];
    let d = x.len();
    let Some((w0, rest)) = w.split_at_checked(d) else {
        return acc;
    };
    let Some((w1, rest)) = rest.split_at_checked(d) else {
        return acc;
    };
    let Some((w2, w3)) = rest.split_at_checked(d) else {
        return acc;
    };
    let (xq, q0, q1, q2, q3) = (
        x.chunks_exact(UNROLL),
        w0.chunks_exact(UNROLL),
        w1.chunks_exact(UNROLL),
        w2.chunks_exact(UNROLL),
        w3.chunks_exact(UNROLL),
    );
    let tail = xq
        .remainder()
        .iter()
        .zip(q0.remainder())
        .zip(q1.remainder())
        .zip(q2.remainder())
        .zip(q3.remainder());
    for ((((xs, a), b), c), e) in xq.zip(q0).zip(q1).zip(q2).zip(q3) {
        for u in 0..UNROLL {
            accumulate(&mut acc, [a[u], b[u], c[u], e[u]], &xs[u]);
        }
    }
    for ((((x, &a), &b), &c), &e) in tail {
        accumulate(&mut acc, [a, b, c, e], x);
    }
    acc
}

/// One step of a `ROWS × LANES` tile, `acc[r][l] += w[r] · x[l]` with a
/// separate multiply and add: the projection tile and the recurrence
/// both run on it.
#[inline(always)]
fn accumulate(acc: &mut [[f32; LANES]; ROWS], w: [f32; ROWS], x: &[f32; LANES]) {
    for (acc_r, &a) in acc.iter_mut().zip(&w) {
        for l in 0..LANES {
            acc_r[l] += a * x[l];
        }
    }
}

/// The gate sigmoid.
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The recurrence of up to `LANES` windows at once, one per lane: window
/// `l`'s timestep `t` has the projection row `ids[l * timesteps + t]` of
/// `wx`. Writes every window's last hidden state to `out`, `units`
/// values per window, and with `trace` the first window's states.
///
/// Each lane computes exactly the per-window recurrence: the gate
/// pre-activation `z = b + (W x + U h_prev)` continues the `W x`
/// accumulator with `U h_prev` in ascending order, and the gate math is
/// elementwise. Slices are split, zipped or read with `get`, and a lane
/// index stays below `lanes <= LANES`, so the compiled body has no panic
/// edge.
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
fn recur(
    lstm: &FrozenLstm,
    wx: &[f32],
    ids: &[usize],
    state: &mut State,
    out: &mut [f32],
    mut trace: Option<Trace<'_>>,
) {
    let (h, t_max) = (lstm.units, lstm.timesteps);
    // `4·units` is `ROWS·units`: a tile of gate rows, and a row of `wx`.
    let width = 4 * h;
    // Testing the widths themselves removes the `chunks_exact` panic edges.
    if t_max == 0 || width == 0 {
        return;
    }
    let lanes = (ids.len() / t_max).min(LANES);
    let (hs, cs, z) = (state.h.get_mut(..h), state.c.get_mut(..h), state.z.get_mut(..width));
    let (Some(hs), Some(cs), Some(z)) = (hs, cs, z) else { return };
    hs.fill([0.0; LANES]);
    cs.fill([0.0; LANES]);
    for t in 0..t_max {
        // `ROWS` gate rows at a time, every lane its own accumulator.
        let (u_tiles, b_tiles) = (lstm.u.chunks_exact(width), lstm.b.chunks_exact(ROWS));
        let tiles = z.chunks_exact_mut(ROWS).zip(u_tiles).zip(b_tiles);
        for (tile, ((z_tile, u_tile), b_tile)) in tiles.enumerate() {
            let mut acc = [[0.0f32; LANES]; ROWS];
            for (l, window) in ids.chunks_exact(t_max).take(LANES).enumerate() {
                let row = window.get(t).and_then(|&id| wx.get(id * width + tile * ROWS..));
                for (acc_r, &v) in acc.iter_mut().zip(row.unwrap_or_default()) {
                    if let Some(a) = acc_r.get_mut(l) {
                        *a = v;
                    }
                }
            }
            let Some((u0, rest)) = u_tile.split_at_checked(h) else { return };
            let Some((u1, rest)) = rest.split_at_checked(h) else { return };
            let Some((u2, u3)) = rest.split_at_checked(h) else { return };
            for ((((h_k, &a), &b), &c), &e) in hs.iter().zip(u0).zip(u1).zip(u2).zip(u3) {
                accumulate(&mut acc, [a, b, c, e], h_k);
            }
            for ((z_r, acc_r), &b) in z_tile.iter_mut().zip(&acc).zip(b_tile) {
                for (z_l, &a) in z_r.iter_mut().zip(acc_r) {
                    *z_l = b + a;
                }
            }
        }
        // Gates: [i, f, g, o], each written back over its pre-activation.
        let Some((zi, rest)) = z.split_at_mut_checked(h) else { return };
        let Some((zf, rest)) = rest.split_at_mut_checked(h) else { return };
        let Some((zg, zo)) = rest.split_at_mut_checked(h) else { return };
        let units = zi.iter_mut().zip(zf.iter_mut()).zip(zg.iter_mut()).zip(zo.iter_mut());
        for ((((i, f), g), o), (c_k, h_k)) in units.zip(cs.iter_mut().zip(hs.iter_mut())) {
            for l in 0..lanes {
                let (i_g, f_g) = (sigmoid(i[l]), sigmoid(f[l]));
                let (g_g, o_g) = (g[l].tanh(), sigmoid(o[l]));
                let c = f_g * c_k[l] + i_g * g_g;
                c_k[l] = c;
                h_k[l] = o_g * c.tanh();
                (i[l], f[l], g[l], o[l]) = (i_g, f_g, g_g, o_g);
            }
        }
        if let Some(trace) = trace.as_mut() {
            trace.record(t, z, cs, hs);
        }
    }
    for (k, h_k) in hs.iter().enumerate() {
        for (l, &v) in h_k.iter().enumerate().take(lanes) {
            if let Some(o) = out.get_mut(l * h + k) {
                *o = v;
            }
        }
    }
}

impl FrozenLstm {
    /// Input length of one window, `timesteps × features`.
    pub(crate) fn input_len(&self) -> usize {
        self.timesteps * self.features
    }

    /// Runs `windows` through the layer and writes each window's last
    /// hidden state to `out`, `units` values per window in order.
    ///
    /// Each distinct timestep row of the call is projected once (see
    /// [`Rows::number`]); then the windows' recurrences run `LANES` at a
    /// time on the shared projections. `bufs` must be sized by
    /// [`LstmBuffers::ensure`] for at least this many windows. With
    /// `trace`, the first window's gates, cells and hidden states are
    /// recorded too.
    pub(crate) fn infer(
        &self,
        windows: Windows<'_>,
        bufs: &mut LstmBuffers,
        out: &mut [f32],
        mut trace: Option<Trace<'_>>,
    ) {
        let (h, t_max) = (self.units, self.timesteps);
        let rows = out.len() / h * t_max;
        let LstmBuffers { rows: table, tile, state } = bufs;
        table.number(windows, rows, self.features, t_max);
        self.project(windows, table, tile);
        let ids = table.ids.get(..rows).unwrap_or_default();
        for (lane_ids, lane_out) in ids.chunks(t_max * LANES).zip(out.chunks_mut(LANES * h)) {
            recur(self, &table.wx, lane_ids, state, lane_out, trace.take());
        }
    }

    /// Computes `W·x` for every distinct row, in one pass over `W` per
    /// `LANES` rows. The rows of a tile are transposed to
    /// `features × LANES` in `tile`, with zero-padded tail lanes.
    fn project(&self, windows: Windows<'_>, rows: &mut Rows, tile: &mut [[f32; LANES]]) {
        let d = self.features;
        let width = 4 * self.units;
        let distinct = rows.distinct.get(..rows.distinct_len).unwrap_or_default();
        let Some(lanes) = tile.get_mut(..d) else { return };
        for (tile_rows, out) in distinct.chunks(LANES).zip(rows.wx.chunks_mut(LANES * width)) {
            lanes.fill([0.0; LANES]);
            for (l, &r) in tile_rows.iter().enumerate() {
                let x = windows.row(r, d, self.timesteps).unwrap_or_default();
                for (lane, &v) in lanes.iter_mut().zip(x) {
                    lane[l] = v;
                }
            }
            // `4·units` rows always split into whole tiles.
            for (r, w_tile) in self.w.chunks_exact(ROWS * d).enumerate() {
                let acc = project_tile(w_tile, lanes);
                for (l, wx_row) in out.chunks_exact_mut(width).enumerate() {
                    for (slot, acc_r) in wx_row[r * ROWS..(r + 1) * ROWS].iter_mut().zip(&acc) {
                        *slot = acc_r[l];
                    }
                }
            }
        }
    }
}

impl Lstm {
    /// Creates an LSTM layer.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] if any dimension is zero.
    pub fn new(
        timesteps: usize,
        features: usize,
        units: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<Self, NeuralError> {
        if timesteps == 0 || features == 0 || units == 0 {
            return Err(NeuralError::InvalidSpec(format!(
                "lstm needs non-zero dims, got T={timesteps} D={features} H={units}"
            )));
        }
        let mut w = vec![0.0; 4 * units * features];
        let mut u = vec![0.0; 4 * units * units];
        Init::GlorotUniform.fill(&mut w, features, units, rng);
        Init::GlorotUniform.fill(&mut u, units, units, rng);
        let mut b = vec![0.0; 4 * units];
        // Standard trick: forget-gate bias = 1 so early training remembers.
        for v in b[units..2 * units].iter_mut() {
            *v = 1.0;
        }
        Ok(Self {
            grad_w: vec![0.0; w.len()],
            grad_u: vec![0.0; u.len()],
            grad_b: vec![0.0; b.len()],
            frozen: FrozenLstm { features, units, timesteps, w, u, b },
            cached_input: Vec::new(),
            cached_gates: Vec::new(),
            cached_cell: Vec::new(),
            cached_hidden: Vec::new(),
        })
    }

    /// Number of hidden units.
    pub fn units(&self) -> usize {
        self.frozen.units
    }

    /// Number of timesteps the layer expects.
    pub fn timesteps(&self) -> usize {
        self.frozen.timesteps
    }
}

impl Layer for Lstm {
    fn kind(&self) -> &'static str {
        "LSTM"
    }

    fn input_len(&self) -> usize {
        self.frozen.input_len()
    }

    fn output_len(&self) -> usize {
        self.frozen.units
    }

    /// The one-window case of [`Layer::forward_batch`], keeping the
    /// window's states for `backward`.
    fn forward(&mut self, input: &[f32], _training: bool) -> Vec<f32> {
        assert_eq!(input.len(), self.input_len(), "lstm input length");
        let lstm = &self.frozen;
        let (h, t_max) = (lstm.units, lstm.timesteps);
        let mut bufs = LstmBuffers::default();
        bufs.ensure(lstm, 1);
        self.cached_gates.resize(t_max * 4 * h, 0.0);
        self.cached_cell.resize(t_max * h, 0.0);
        self.cached_hidden.resize(t_max * h, 0.0);
        let trace = Trace {
            gates: &mut self.cached_gates,
            cell: &mut self.cached_cell,
            hidden: &mut self.cached_hidden,
        };
        let mut out = vec![0.0; h];
        lstm.infer(Windows::Block(input), &mut bufs, &mut out, Some(trace));
        self.cached_input.clear();
        self.cached_input.extend_from_slice(input);
        out
    }

    /// Every window through [`FrozenLstm::infer`], which projects each
    /// distinct timestep row of the batch once.
    fn forward_batch(&mut self, inputs: &[&[f32]]) -> Vec<Vec<f32>> {
        for x in inputs {
            assert_eq!(x.len(), self.input_len(), "lstm input length");
        }
        let h = self.frozen.units;
        let mut bufs = LstmBuffers::default();
        bufs.ensure(&self.frozen, inputs.len());
        let mut out = vec![0.0; inputs.len() * h];
        self.frozen.infer(Windows::Slices(inputs), &mut bufs, &mut out, None);
        out.chunks_exact(h).map(<[f32]>::to_vec).collect()
    }

    fn backward(&mut self, grad_output: &[f32], input_grad: bool) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.frozen.units, "lstm grad length");
        assert!(
            !self.cached_input.is_empty(),
            "backward called before forward"
        );
        let h = self.frozen.units;
        let d = self.frozen.features;
        let rows = 4 * h;
        let t_max = self.frozen.timesteps;

        // Pass 1, the recurrence: every dz_t, grad_b, grad_u and dh_{t-1}.
        // It touches U only, so W is left for one sweep below.
        let mut dz = vec![0.0f32; t_max * rows];
        let mut dh = grad_output.to_vec();
        let mut dc = vec![0.0f32; h];
        for t in (0..t_max).rev() {
            let gates = &self.cached_gates[t * rows..(t + 1) * rows];
            let c_t = &self.cached_cell[t * h..(t + 1) * h];
            let (h_prev, c_prev): (&[f32], &[f32]) = if t == 0 {
                (&[], &[])
            } else {
                (
                    &self.cached_hidden[(t - 1) * h..t * h],
                    &self.cached_cell[(t - 1) * h..t * h],
                )
            };
            let dz_t = &mut dz[t * rows..(t + 1) * rows];
            for j in 0..h {
                let i_g = gates[j];
                let f_g = gates[h + j];
                let g_g = gates[2 * h + j];
                let o_g = gates[3 * h + j];
                let tanh_c = c_t[j].tanh();
                let do_g = dh[j] * tanh_c;
                let dct = dc[j] + dh[j] * o_g * (1.0 - tanh_c * tanh_c);
                let di = dct * g_g;
                let dg = dct * i_g;
                let cp = if t == 0 { 0.0 } else { c_prev[j] };
                let df = dct * cp;
                dz_t[j] = di * i_g * (1.0 - i_g);
                dz_t[h + j] = df * f_g * (1.0 - f_g);
                dz_t[2 * h + j] = dg * (1.0 - g_g * g_g);
                dz_t[3 * h + j] = do_g * o_g * (1.0 - o_g);
                dc[j] = dct * f_g;
            }
            let mut dh_prev = vec![0.0f32; h];
            for (((&g, gb), gu), ur) in dz_t
                .iter()
                .zip(&mut self.grad_b)
                .zip(self.grad_u.chunks_exact_mut(h))
                .zip(self.frozen.u.chunks_exact(h))
            {
                if g == 0.0 {
                    continue;
                }
                *gb += g;
                // No h_{-1}: at t = 0 this zip is empty.
                for (((gu_k, dh_k), &hp), &u) in gu.iter_mut().zip(&mut dh_prev).zip(h_prev).zip(ur)
                {
                    *gu_k += g * hp;
                    *dh_k += g * u;
                }
            }
            dh = dh_prev;
        }

        // Pass 2: one sweep over the rows of W. Each row walks t in
        // descending order, which keeps every sum in the order of the
        // per-timestep loop: grad_w over t descending, grad_in over rows.
        let mut grad_in = if input_grad {
            vec![0.0f32; self.input_len()]
        } else {
            Vec::new()
        };
        for (row, (wr, gw)) in self
            .frozen
            .w
            .chunks_exact(d)
            .zip(self.grad_w.chunks_exact_mut(d))
            .enumerate()
        {
            for t in (0..t_max).rev() {
                let g = dz[t * rows + row];
                if g == 0.0 {
                    continue;
                }
                let x_t = &self.cached_input[t * d..(t + 1) * d];
                for (gw_k, &x) in gw.iter_mut().zip(x_t) {
                    *gw_k += g * x;
                }
                if input_grad {
                    let gx = &mut grad_in[t * d..(t + 1) * d];
                    for (gx_k, &w) in gx.iter_mut().zip(wr) {
                        *gx_k += g * w;
                    }
                }
            }
        }
        grad_in
    }

    fn param_count(&self) -> usize {
        self.frozen.w.len() + self.frozen.u.len() + self.frozen.b.len()
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        visitor(&mut self.frozen.w, &mut self.grad_w);
        visitor(&mut self.frozen.u, &mut self.grad_u);
        visitor(&mut self.frozen.b, &mut self.grad_b);
    }

    fn zero_grads(&mut self) {
        self.grad_w.iter_mut().for_each(|g| *g = 0.0);
        self.grad_u.iter_mut().for_each(|g| *g = 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    fn summary(&self) -> LayerSummary {
        LayerSummary {
            kind: "LSTM".into(),
            output_shape: format!("{}", self.frozen.units),
            config: format!(
                "units={} timesteps={} features={}",
                self.frozen.units, self.frozen.timesteps, self.frozen.features
            ),
            activation: Activation::Tanh.short_name().into(),
            parameters: self.param_count(),
        }
    }

    fn export_params(&self) -> Vec<Vec<f32>> {
        let FrozenLstm { w, u, b, .. } = &self.frozen;
        vec![w.clone(), u.clone(), b.clone()]
    }

    fn import_params(&mut self, params: &[Vec<f32>]) -> Result<(), NeuralError> {
        let FrozenLstm { w, u, b, .. } = &mut self.frozen;
        import_into("LSTM", &mut [w, u, b], params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(23)
    }

    #[test]
    fn paper_parameter_count_is_exact() {
        let layer = Lstm::new(5, 1700, 32, &mut rng()).unwrap();
        assert_eq!(layer.param_count(), 221_824);
        // Plus Dense(32 -> 4): 132 => 221 956 (paper §III.B.3).
        assert_eq!(layer.param_count() + 32 * 4 + 4, 221_956);
    }

    #[test]
    fn output_is_units_long() {
        let mut layer = Lstm::new(3, 4, 5, &mut rng()).unwrap();
        let out = layer.forward(&[0.1; 12], false);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn hidden_state_is_bounded() {
        // h = o * tanh(c): |h| <= 1.
        let mut layer = Lstm::new(10, 3, 4, &mut rng()).unwrap();
        let input: Vec<f32> = (0..30).map(|i| (i as f32 * 1.3).sin() * 10.0).collect();
        let out = layer.forward(&input, false);
        assert!(out.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn constant_input_converges_towards_fixed_point() {
        let mut short = Lstm::new(2, 2, 3, &mut rng()).unwrap();
        let mut long = Lstm::new(40, 2, 3, &mut rng()).unwrap();
        long.import_params(&short.export_params()).unwrap();
        let x2: Vec<f32> = [0.5, -0.5].repeat(2);
        let x40: Vec<f32> = [0.5, -0.5].repeat(40);
        let out_short = short.forward(&x2, false);
        let out_long_a = long.forward(&x40, false);
        // Running even longer barely changes the state.
        let mut longer = Lstm::new(41, 2, 3, &mut rng()).unwrap();
        longer.import_params(&short.export_params()).unwrap();
        let x41: Vec<f32> = [0.5, -0.5].repeat(41);
        let out_long_b = longer.forward(&x41, false);
        let drift: f32 = out_long_a
            .iter()
            .zip(&out_long_b)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let initial_motion: f32 = out_short
            .iter()
            .zip(&out_long_a)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(drift < 0.05 * (initial_motion + 0.1), "drift {drift}");
    }

    #[test]
    fn backward_matches_numeric_input_gradients() {
        let mut layer = Lstm::new(4, 3, 3, &mut rng()).unwrap();
        let input: Vec<f32> = (0..12).map(|i| ((i as f32) * 0.7).sin()).collect();
        let upstream = [0.5f32, -1.0, 1.5];
        layer.forward(&input, true);
        layer.zero_grads();
        let grad_in = layer.backward(&upstream, true);

        let loss = |l: &mut Lstm, x: &[f32]| -> f32 {
            l.forward(x, false)
                .iter()
                .zip(&upstream)
                .map(|(y, u)| y * u)
                .sum()
        };
        let eps = 1e-3;
        for i in 0..input.len() {
            let mut hi = input.clone();
            hi[i] += eps;
            let mut lo = input.clone();
            lo[i] -= eps;
            let num = (loss(&mut layer, &hi) - loss(&mut layer, &lo)) / (2.0 * eps);
            assert!(
                (grad_in[i] - num).abs() < 1e-2,
                "input grad {i}: analytic {} numeric {num}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn backward_matches_numeric_weight_gradients() {
        let mut layer = Lstm::new(3, 2, 2, &mut rng()).unwrap();
        let input: Vec<f32> = (0..6).map(|i| 0.3 * i as f32 - 0.8).collect();
        let upstream = [1.0f32, -0.5];
        layer.forward(&input, true);
        layer.zero_grads();
        layer.backward(&upstream, true);
        let mut analytic = Vec::new();
        layer.visit_params(&mut |_p, g| analytic.push(g.to_vec()));

        let loss = |l: &mut Lstm, x: &[f32]| -> f32 {
            l.forward(x, false)
                .iter()
                .zip(&upstream)
                .map(|(y, u)| y * u)
                .sum()
        };
        let eps = 1e-3;
        let mut exported = layer.export_params();
        // Check a spread of W, U and b entries.
        for (tensor, idx) in [(0usize, 0usize), (0, 7), (1, 3), (2, 1), (2, 5)] {
            let orig = exported[tensor][idx];
            exported[tensor][idx] = orig + eps;
            layer.import_params(&exported).unwrap();
            let f_hi = loss(&mut layer, &input);
            exported[tensor][idx] = orig - eps;
            layer.import_params(&exported).unwrap();
            let f_lo = loss(&mut layer, &input);
            exported[tensor][idx] = orig;
            layer.import_params(&exported).unwrap();
            let num = (f_hi - f_lo) / (2.0 * eps);
            assert!(
                (analytic[tensor][idx] - num).abs() < 1e-2,
                "tensor {tensor} idx {idx}: analytic {} numeric {num}",
                analytic[tensor][idx]
            );
        }
    }

    #[test]
    fn order_of_timesteps_matters() {
        let mut layer = Lstm::new(3, 2, 4, &mut rng()).unwrap();
        let fwd = layer.forward(&[1.0, 0.0, 0.0, 1.0, -1.0, 0.5], false);
        let rev = layer.forward(&[-1.0, 0.5, 0.0, 1.0, 1.0, 0.0], false);
        let diff: f32 = fwd.iter().zip(&rev).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4, "LSTM ignored sequence order");
    }

    /// The per-timestep, per-row loops the layer is checked against:
    /// `W` is read once per timestep and every dot product is one chain.
    fn textbook_forward(l: &mut Lstm, input: &[f32]) -> Vec<f32> {
        let h = l.frozen.units;
        let d = l.frozen.features;
        let t_max = l.frozen.timesteps;
        l.cached_input = input.to_vec();
        l.cached_gates = vec![0.0; t_max * 4 * h];
        l.cached_cell = vec![0.0; t_max * h];
        l.cached_hidden = vec![0.0; t_max * h];

        let mut h_prev = vec![0.0f32; h];
        let mut c_prev = vec![0.0f32; h];
        for t in 0..t_max {
            let x_t = &input[t * d..(t + 1) * d];
            // z = W x + U h_prev + b, z has 4h entries.
            let mut z = l.frozen.b.clone();
            for (row, slot) in z.iter_mut().enumerate() {
                let wr = &l.frozen.w[row * d..(row + 1) * d];
                let mut acc = 0.0f32;
                for (wi, xi) in wr.iter().zip(x_t) {
                    acc += wi * xi;
                }
                let ur = &l.frozen.u[row * h..(row + 1) * h];
                for (ui, hi) in ur.iter().zip(&h_prev) {
                    acc += ui * hi;
                }
                *slot += acc;
            }
            // Gates: [i, f, g, o].
            let gates = &mut l.cached_gates[t * 4 * h..(t + 1) * 4 * h];
            for j in 0..h {
                let i_g = sigmoid(z[j]);
                let f_g = sigmoid(z[h + j]);
                let g_g = z[2 * h + j].tanh();
                let o_g = sigmoid(z[3 * h + j]);
                gates[j] = i_g;
                gates[h + j] = f_g;
                gates[2 * h + j] = g_g;
                gates[3 * h + j] = o_g;
                let c = f_g * c_prev[j] + i_g * g_g;
                l.cached_cell[t * h + j] = c;
                l.cached_hidden[t * h + j] = o_g * c.tanh();
            }
            h_prev.copy_from_slice(&l.cached_hidden[t * h..(t + 1) * h]);
            c_prev.copy_from_slice(&l.cached_cell[t * h..(t + 1) * h]);
        }
        h_prev
    }

    fn textbook_backward(l: &mut Lstm, grad_output: &[f32]) -> Vec<f32> {
        let h = l.frozen.units;
        let d = l.frozen.features;
        let t_max = l.frozen.timesteps;
        let mut grad_in = vec![0.0f32; l.input_len()];
        let mut dh = grad_output.to_vec();
        let mut dc = vec![0.0f32; h];
        let mut dz = vec![0.0f32; 4 * h];

        for t in (0..t_max).rev() {
            let gates = &l.cached_gates[t * 4 * h..(t + 1) * 4 * h];
            let c_t = &l.cached_cell[t * h..(t + 1) * h];
            let (h_prev, c_prev): (&[f32], &[f32]) = if t == 0 {
                (&[], &[])
            } else {
                (
                    &l.cached_hidden[(t - 1) * h..t * h],
                    &l.cached_cell[(t - 1) * h..t * h],
                )
            };
            for j in 0..h {
                let i_g = gates[j];
                let f_g = gates[h + j];
                let g_g = gates[2 * h + j];
                let o_g = gates[3 * h + j];
                let tanh_c = c_t[j].tanh();
                let do_g = dh[j] * tanh_c;
                let dct = dc[j] + dh[j] * o_g * (1.0 - tanh_c * tanh_c);
                let di = dct * g_g;
                let dg = dct * i_g;
                let cp = if t == 0 { 0.0 } else { c_prev[j] };
                let df = dct * cp;
                dz[j] = di * i_g * (1.0 - i_g);
                dz[h + j] = df * f_g * (1.0 - f_g);
                dz[2 * h + j] = dg * (1.0 - g_g * g_g);
                dz[3 * h + j] = do_g * o_g * (1.0 - o_g);
                dc[j] = dct * f_g;
            }
            // Accumulate parameter gradients and propagate to x_t, h_{t-1}.
            let x_t = &l.cached_input[t * d..(t + 1) * d];
            let mut dh_prev = vec![0.0f32; h];
            for (row, &g) in dz.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                l.grad_b[row] += g;
                let gw = &mut l.grad_w[row * d..(row + 1) * d];
                let gx = &mut grad_in[t * d..(t + 1) * d];
                let wr_base = row * d;
                for k in 0..d {
                    gw[k] += g * x_t[k];
                    gx[k] += g * l.frozen.w[wr_base + k];
                }
                if t > 0 {
                    let gu = &mut l.grad_u[row * h..(row + 1) * h];
                    let ur_base = row * h;
                    for k in 0..h {
                        gu[k] += g * h_prev[k];
                        dh_prev[k] += g * l.frozen.u[ur_base + k];
                    }
                }
            }
            dh = dh_prev;
        }
        grad_in
    }

    fn assert_bits_eq(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what} length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs textbook {w}");
        }
    }

    #[test]
    fn forward_and_backward_are_bit_identical_to_textbook_loops() {
        use rand::Rng;
        let mut draw = ChaCha8Rng::seed_from_u64(41);
        // Roughly a quarter of the values are exact zeros, so inputs hit
        // `0·w` products and upstream zeros drive whole gate rows of dz
        // to zero (the skip path); forget rows at t = 0 are always zero.
        let sparse = |n: usize, rng: &mut ChaCha8Rng| -> Vec<f32> {
            (0..n)
                .map(|_| {
                    if rng.gen_bool(0.25) {
                        0.0
                    } else {
                        rng.gen_range(-2.0f32..2.0)
                    }
                })
                .collect()
        };
        // Timesteps cross the 8-lane tile; features include odd counts.
        let shapes = [
            (1, 1, 1),
            (1, 3, 7),
            (5, 7, 7),
            (8, 1, 32),
            (9, 13, 33),
            (16, 5, 1),
            (16, 11, 33),
            (9, 4, 32),
            (5, 1700, 32),
        ];
        for (t, d, h) in shapes {
            let mut fast = Lstm::new(t, d, h, &mut draw).unwrap();
            let mut textbook = fast.clone();
            for step in 0..3 {
                let input = sparse(t * d, &mut draw);
                let upstream = sparse(h, &mut draw);
                let ctx = format!("T={t} D={d} H={h} step {step}");
                let out = fast.forward(&input, true);
                assert_bits_eq(
                    &format!("{ctx} output"),
                    &out,
                    &textbook_forward(&mut textbook, &input),
                );
                let grad_in = fast.backward(&upstream, true);
                let want_in = textbook_backward(&mut textbook, &upstream);
                assert_bits_eq(&format!("{ctx} grad_in"), &grad_in, &want_in);
                assert_bits_eq(&format!("{ctx} grad_w"), &fast.grad_w, &textbook.grad_w);
                assert_bits_eq(&format!("{ctx} grad_u"), &fast.grad_u, &textbook.grad_u);
                assert_bits_eq(&format!("{ctx} grad_b"), &fast.grad_b, &textbook.grad_b);
            }
        }
    }

    #[test]
    fn rows_match_only_bit_equal_rows() {
        let x = [0.5f32, 0.0];
        let neg_zero = [0.5f32, -0.0];
        let ulp = [0.5f32, f32::from_bits(1)];
        let w = [0.25f32, 1.0];
        let first: Vec<f32> = [x, x, neg_zero, ulp, neg_zero].concat();
        let second: Vec<f32> = [x, neg_zero, ulp, w, w].concat();
        let windows = [&first[..], &second[..]];
        let windows = Windows::Slices(&windows);
        let lstm = Lstm::new(5, 2, 1, &mut rng()).unwrap();
        let mut bufs = LstmBuffers::default();
        bufs.ensure(&lstm.frozen, 2);
        let rows = &mut bufs.rows;
        rows.number(windows, 10, 2, 5);
        assert_eq!(rows.ids[..10], [0, 0, 1, 2, 1, 0, 1, 2, 3, 3]);
        let distinct: Vec<&[f32]> = rows.distinct[..rows.distinct_len]
            .iter()
            .map(|&r| windows.row(r, 2, 5).unwrap())
            .collect();
        assert_eq!(distinct, [&x[..], &neg_zero, &ulp, &w]);
        // A new call forgets the rows of the last one.
        rows.number(Windows::Slices(&[&second[..]]), 5, 2, 5);
        assert_eq!(rows.ids[..5], [0, 1, 2, 3, 3]);
        assert_eq!(rows.distinct[..rows.distinct_len], [0, 1, 2, 3]);
    }

    /// Rows in plateaus, with neighbours that differ only in the sign of
    /// a zero or by one ULP, and rows that repeat one two steps back.
    fn row_stream(n: usize, d: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f32>> {
        use rand::Rng;
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(n);
        for i in 0..n {
            let row = match (i % 5, rows.last()) {
                (1, Some(prev)) => prev.clone(),
                (2, Some(prev)) => {
                    let mut row = prev.clone();
                    row[0] = -row[0];
                    row
                }
                (3, Some(prev)) => {
                    let mut row = prev.clone();
                    row[d - 1] = f32::from_bits(row[d - 1].to_bits() + 1);
                    row
                }
                (4, Some(_)) => rows[i - 2].clone(),
                _ => {
                    let mut row: Vec<f32> = (0..d).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
                    row[0] = 0.0;
                    row
                }
            };
            rows.push(row);
        }
        rows
    }

    #[test]
    fn forward_batch_is_bit_identical_to_forward() {
        let mut draw = ChaCha8Rng::seed_from_u64(43);
        // Timesteps below, at and above the 8-lane tile; odd unit counts.
        for (t, d, h) in [(1, 3, 2), (5, 13, 7), (8, 1, 3), (9, 6, 4), (5, 1700, 32)] {
            let mut layer = Lstm::new(t, d, h, &mut draw).unwrap();
            let rows = row_stream(48 + t, d, &mut draw);
            let sliding: Vec<Vec<f32>> = rows.windows(t).map(|w| w.concat()).collect();
            let disjoint: Vec<Vec<f32>> = rows.chunks_exact(t).map(|w| w.concat()).collect();
            // Sliding windows as views of one buffer share their rows' memory.
            let buffer = rows.concat();
            let views: Vec<&[f32]> = buffer.windows(t * d).step_by(d).collect();
            let copies: Vec<&[f32]> = sliding.iter().map(Vec::as_slice).collect();
            let disjoint: Vec<&[f32]> = disjoint.iter().map(Vec::as_slice).collect();
            let kinds = [("sliding", &copies), ("views", &views), ("disjoint", &disjoint)];
            for (kind, windows) in kinds {
                let want: Vec<Vec<f32>> = windows.iter().map(|w| layer.forward(w, false)).collect();
                for size in [1, 7, 33, windows.len()] {
                    let mut got = Vec::new();
                    for refs in windows.chunks(size) {
                        got.extend(layer.forward_batch(refs));
                    }
                    assert_eq!(got.len(), want.len());
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        let ctx = format!("T={t} D={d} H={h} {kind} batch {size} window {i}");
                        assert_bits_eq(&ctx, g, w);
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_zero_dims() {
        assert!(Lstm::new(0, 3, 3, &mut rng()).is_err());
        assert!(Lstm::new(3, 0, 3, &mut rng()).is_err());
        assert!(Lstm::new(3, 3, 0, &mut rng()).is_err());
    }
}
