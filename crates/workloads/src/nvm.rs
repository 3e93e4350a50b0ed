//! Transactions on direct-access NVM (Sec 8.3, Figs 19–20).
//!
//! A filesystem-style workload of append-only transactions on NVM with
//! battery-backed (persistent) caches. The baseline must journal every
//! write because it cannot observe evictions: each 8-byte word is written
//! twice (journal entry + in-place apply) plus bookkeeping instructions.
//!
//! täkō's visibility removes that waste (Table 6): the application
//! writes a *phantom* transaction buffer; `onMiss` fills lines with an
//! `INVALID` marker; committing is just `flushData`. `onWriteback`
//! checks the commit flag — committed lines copy straight to their NVM
//! home ("the cache is the journal"); lines evicted *before* commit fall
//! back to journaling, off the critical path, and the application
//! replays the journal at commit. As long as transactions fit in the L2
//! there are no early evictions and journaling vanishes entirely.

use tako_core::{EngineCtx, Morph, MorphHandle, MorphLevel, TakoSystem};
use tako_cpu::{run_single, CoreEnv, CoreTiming, MemSystem, StepResult, ThreadProgram};
use tako_mem::addr::Addr;
use tako_sim::config::{SystemConfig, LINE_BYTES};
use tako_sim::stats::Counter;

use crate::common::RunResult;

/// Marker for not-yet-written words in the transaction buffer (Table 6).
pub const INVALID_WORD: u64 = u64::MAX;

/// Which implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Software journaling: every word written to the journal, then
    /// applied in place after commit.
    Journaling,
    /// täkō: phantom transaction buffer, commit = flushData. Fig 20's
    /// "ideal" row is this program on
    /// [`EngineConfig::ideal`](tako_sim::config::EngineConfig::ideal).
    Tako,
}

impl Variant {
    /// All variants in Fig 19's order.
    pub const ALL: [Variant; 2] = [Variant::Journaling, Variant::Tako];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Journaling => "journaling",
            Variant::Tako => "tako",
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Bytes written per transaction (Fig 19 sweeps 1 KB – 128 KB).
    pub txn_bytes: u64,
    /// Number of transactions.
    pub txns: u64,
    /// RNG-free deterministic data seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            txn_bytes: 16 * 1024,
            txns: 32,
            seed: 0x9091,
        }
    }
}

/// The deterministic payload word for transaction `t`, word `w`
/// (never collides with [`INVALID_WORD`]).
fn payload(seed: u64, t: u64, w: u64) -> u64 {
    (seed ^ (t << 32) ^ w).wrapping_mul(0x9E37_79B9) & !(1 << 63)
}

// ----------------------------------------------------------------------
// The NVM Morph
// ----------------------------------------------------------------------

/// Control block layout (real memory): `+0` commit flag, `+8` journal
/// entry count, `+16` home base for the in-flight transaction.
struct NvmMorph {
    ctrl: Addr,
    journal: Addr,
    journal_cursor: u64,
}

impl Morph for NvmMorph {
    fn name(&self) -> &str {
        "nvm-txn"
    }

    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        // Table 6: set the line to the INVALID value.
        let v = ctx.arg();
        ctx.line_fill_u64(INVALID_WORD, &[v]);
    }

    fn on_writeback(&mut self, ctx: &mut EngineCtx<'_>) {
        let offset = ctx.offset();
        let (committed, c1) = ctx.load_u64(self.ctrl, &[]);
        let (home, _c2) = ctx.load_u64(self.ctrl + 16, &[c1]);
        let decide = ctx.alu(&[c1]);
        if committed == 1 {
            // Commit already happened: apply the writes directly to NVM.
            ctx.copy_line_out(0, home + offset, LINE_BYTES as usize, &[decide]);
        } else {
            // Evicted before commit: journal (addr, data) entries.
            let (vals, read) = ctx.line_read_all_u64(&[decide]);
            let mut dep = read;
            let mut written = 0u64;
            for (i, &w) in vals.iter().enumerate() {
                if w == INVALID_WORD {
                    continue;
                }
                let entry = self.journal + (self.journal_cursor + written) * 16;
                dep = ctx.store_stream_u64(entry, home + offset + 8 * i as u64, &[dep]);
                ctx.store_stream_u64(entry + 8, w, &[dep]);
                written += 1;
            }
            if written > 0 {
                self.journal_cursor += written;
                ctx.store_u64(self.ctrl + 8, self.journal_cursor, &[dep]);
                ctx.stats().add(Counter::JournalWrite, written);
            }
        }
    }

    fn static_instrs(&self) -> u32 {
        28
    }
}

// ----------------------------------------------------------------------
// Thread programs
// ----------------------------------------------------------------------

const CHUNK: u64 = 16;

/// Baseline journaling transactions.
struct JournalProgram {
    params: Params,
    home: Addr,
    journal: Addr,
    txn: u64,
    word: u64,
    phase: u8, // 0 = journal writes, 1 = apply in place
}

impl ThreadProgram for JournalProgram {
    fn step(&mut self, env: &mut CoreEnv<'_>) -> StepResult {
        let words = self.params.txn_bytes / 8;
        for _ in 0..CHUNK {
            if self.txn >= self.params.txns {
                return StepResult::Done;
            }
            let t = self.txn;
            let w = self.word;
            let data = payload(self.params.seed, t, w);
            let home_addr = self.home + t * self.params.txn_bytes + w * 8;
            match self.phase {
                0 => {
                    // Journal entry: (addr, data), plus bookkeeping.
                    let entry = self.journal + (t * words + w) * 16;
                    env.compute(2);
                    env.store_stream_u64(entry, home_addr);
                    env.store_stream_u64(entry + 8, data);
                    env.stats().bump(Counter::JournalWrite);
                }
                _ => {
                    // Apply in place after the commit record.
                    env.compute(1);
                    env.store_stream_u64(home_addr, data);
                }
            }
            self.word += 1;
            if self.word >= words {
                self.word = 0;
                if self.phase == 0 {
                    // Commit record ends the journal phase.
                    env.store_u64(self.journal + t * words * 16 + 8, 1);
                    env.fence();
                    self.phase = 1;
                } else {
                    self.phase = 0;
                    self.txn += 1;
                }
            }
        }
        StepResult::Running
    }
}

/// täkō transactions: write the phantom buffer, commit with flushData.
struct TakoTxnProgram {
    params: Params,
    home: Addr,
    ctrl: Addr,
    journal: Addr,
    handle: MorphHandle,
    txn: u64,
    word: u64,
    replayed: u64,
    phase: u8, // 0 = fill buffer, 1 = commit + replay
}

impl ThreadProgram for TakoTxnProgram {
    fn step(&mut self, env: &mut CoreEnv<'_>) -> StepResult {
        let words = self.params.txn_bytes / 8;
        if self.txn >= self.params.txns {
            return StepResult::Done;
        }
        let t = self.txn;
        if self.phase == 1 {
            // Commit: set the flag, flush the Morph's data, replay any
            // journaled writes, then reset for the next transaction.
            env.store_u64(self.ctrl, 1);
            env.fence();
            env.flush(self.handle.range());
            let jcount = env.load_u64(self.ctrl + 8);
            while self.replayed < jcount {
                let entry = self.journal + self.replayed * 16;
                let addr = env.load_stream_u64(entry);
                let data = env.load_stream_u64(entry + 8);
                env.store_stream_u64(addr, data);
                env.compute(1);
                self.replayed += 1;
            }
            env.store_u64(self.ctrl, 0);
            self.phase = 0;
            self.txn += 1;
            return StepResult::Running;
        }
        if self.word == 0 {
            // Announce the transaction's NVM home to the callbacks.
            env.store_u64(self.ctrl + 16, self.home + t * self.params.txn_bytes);
        }
        for _ in 0..CHUNK {
            if self.word >= words {
                self.word = 0;
                self.phase = 1;
                return StepResult::Running;
            }
            let w = self.word;
            self.word += 1;
            let data = payload(self.params.seed, t, w);
            env.compute(1);
            env.store_u64(self.handle.range().base + w * 8, data);
        }
        StepResult::Running
    }
}

// ----------------------------------------------------------------------
// Runner
// ----------------------------------------------------------------------

/// Outcome of an NVM-transaction run.
#[derive(Debug, Clone)]
pub struct NvmResult {
    /// Timing/energy/statistics.
    pub run: RunResult,
    /// Whether the NVM home region holds exactly the committed data.
    pub data_correct: bool,
    /// Journal entries written.
    pub journal_writes: u64,
    /// Core instructions per 8 bytes written (Fig 20).
    pub core_instrs_per_word: f64,
    /// Engine instructions per 8 bytes written (Fig 20).
    pub engine_instrs_per_word: f64,
}

impl tako_sim::checkpoint::Record for NvmResult {
    fn record(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        self.run.record(w);
        w.put_bool(self.data_correct);
        w.put_u64(self.journal_writes);
        w.put_f64(self.core_instrs_per_word);
        w.put_f64(self.engine_instrs_per_word);
    }
    fn replay(
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<Self, tako_sim::checkpoint::SnapError> {
        Ok(NvmResult {
            run: RunResult::replay(r)?,
            data_correct: r.get_bool()?,
            journal_writes: r.get_u64()?,
            core_instrs_per_word: r.get_f64()?,
            engine_instrs_per_word: r.get_f64()?,
        })
    }
}

/// Run one variant.
pub fn run(variant: Variant, params: Params, cfg: &SystemConfig) -> NvmResult {
    let mut sys = TakoSystem::new(cfg.clone());
    let words = params.txn_bytes / 8;
    let total_words = words * params.txns;
    let home = sys.alloc_real(params.txn_bytes * params.txns).base;
    let journal = sys.alloc_real(total_words * 16 + 4096).base;
    let ctrl = sys.alloc_real(64).base;
    let max_steps = 80 * total_words + 10_000;

    let cycles = match variant {
        Variant::Journaling => {
            let mut prog = JournalProgram {
                params,
                home,
                journal,
                txn: 0,
                word: 0,
                phase: 0,
            };
            run_single(0, &mut prog, CoreTiming::new(cfg.core), &mut sys, max_steps)
        }
        Variant::Tako => {
            let handle = sys
                .register_phantom(
                    MorphLevel::Private,
                    params.txn_bytes,
                    Box::new(NvmMorph {
                        ctrl,
                        journal,
                        journal_cursor: 0,
                    }),
                )
                .expect("register NVM morph");
            let mut prog = TakoTxnProgram {
                params,
                home,
                ctrl,
                journal,
                handle,
                txn: 0,
                word: 0,
                replayed: 0,
                phase: 0,
            };
            run_single(0, &mut prog, CoreTiming::new(cfg.core), &mut sys, max_steps)
        }
    };

    // Validate the NVM image.
    let mem = sys.data();
    let mut data_correct = true;
    for t in 0..params.txns {
        for w in 0..words {
            let addr = home + t * params.txn_bytes + w * 8;
            if mem.read_u64(addr) != payload(params.seed, t, w) {
                data_correct = false;
            }
        }
    }
    let stats = sys.stats_view();
    let per_word = |x: u64| x as f64 / total_words as f64;
    NvmResult {
        data_correct,
        journal_writes: stats.get(Counter::JournalWrite),
        core_instrs_per_word: per_word(stats.get(Counter::CoreInstr)),
        engine_instrs_per_word: per_word(stats.get(Counter::EngineInstr)),
        run: RunResult::collect(&sys, cycles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::with_ideal_engine;

    fn small() -> Params {
        Params {
            txn_bytes: 4 * 1024,
            txns: 8,
            seed: 11,
        }
    }

    #[test]
    fn both_variants_produce_correct_nvm_image() {
        let cfg = SystemConfig::default_16core();
        for (label, v, cfg) in with_ideal_engine(&Variant::ALL, Variant::label, Variant::Tako, &cfg)
        {
            let r = run(v, small(), &cfg);
            assert!(r.data_correct, "{label}: corrupted NVM image");
        }
    }

    #[test]
    fn tako_eliminates_journaling_when_txn_fits_cache() {
        // 4 KB transactions fit easily in the 128 KB L2.
        let tk = run(Variant::Tako, small(), &SystemConfig::default_16core());
        assert_eq!(
            tk.journal_writes, 0,
            "no journaling when nothing is evicted before commit"
        );
        let base = run(
            Variant::Journaling,
            small(),
            &SystemConfig::default_16core(),
        );
        assert_eq!(base.journal_writes, 8 * 4 * 1024 / 8);
    }

    #[test]
    fn tako_falls_back_to_journaling_when_txn_exceeds_cache() {
        let p = Params {
            txn_bytes: 512 * 1024, // 4x the 128 KB L2
            txns: 2,
            seed: 12,
        };
        let tk = run(Variant::Tako, p, &SystemConfig::default_16core());
        assert!(tk.data_correct);
        assert!(
            tk.journal_writes > 0,
            "early evictions must fall back to journaling"
        );
    }

    #[test]
    fn tako_is_faster_and_executes_fewer_core_instructions() {
        let p = small();
        let cfg = SystemConfig::default_16core();
        let base = run(Variant::Journaling, p, &cfg);
        let tk = run(Variant::Tako, p, &cfg);
        assert!(
            tk.run.cycles < base.run.cycles,
            "tako {} vs journaling {}",
            tk.run.cycles,
            base.run.cycles
        );
        // Fig 20: ~50% fewer core instructions.
        assert!(
            tk.core_instrs_per_word < 0.7 * base.core_instrs_per_word,
            "tako {} vs journaling {} core instrs/word",
            tk.core_instrs_per_word,
            base.core_instrs_per_word
        );
    }
}
