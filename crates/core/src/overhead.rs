//! Hardware-overhead accounting (Table 2).
//!
//! täkō's state overhead per LLC bank: one Morph bit per LLC tag, the
//! engine's L1d / TLB / rTLB, the callback buffer, and the fabric's token
//! store and instruction memory. The paper reports 27.1 KB over a 512 KB
//! bank — 5.3%.

use tako_sim::config::{EngineConfig, SystemConfig, LINE_BYTES};

/// Bytes of täkō state per LLC bank, itemized (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadReport {
    /// 1 bit per LLC-bank line for Morph tracking.
    pub llc_tag_bits_bytes: u64,
    /// Engine L1 data cache.
    pub engine_l1d_bytes: u64,
    /// Engine TLB (conventional, shared sizing with the rTLB).
    pub engine_tlb_bytes: u64,
    /// Engine reverse TLB.
    pub engine_rtlb_bytes: u64,
    /// Callback buffer (one line-sized entry per slot).
    pub callback_buffer_bytes: u64,
    /// Fabric token store (tokens/PE × 64 B operand width).
    pub token_store_bytes: u64,
    /// Fabric instruction memory (≈4 B per static instruction).
    pub instruction_memory_bytes: u64,
    /// Capacity of one LLC bank, for the percentage.
    pub llc_bank_bytes: u64,
}

impl OverheadReport {
    /// Compute the report for `cfg`.
    pub fn for_config(cfg: &SystemConfig) -> Self {
        let lines = cfg.llc_bank.lines();
        let e = &cfg.engine;
        // TLB entries sized like the rTLB: 8 B per entry.
        let tlb_bytes = u64::from(e.rtlb_entries) * 8;
        OverheadReport {
            llc_tag_bits_bytes: lines.div_ceil(8),
            engine_l1d_bytes: e.l1d.size_bytes,
            engine_tlb_bytes: tlb_bytes,
            engine_rtlb_bytes: tlb_bytes,
            callback_buffer_bytes: u64::from(e.callback_buffer) * LINE_BYTES,
            token_store_bytes: u64::from(e.total_pes())
                * u64::from(EngineConfig::TOKENS_PER_PE)
                * LINE_BYTES,
            instruction_memory_bytes: u64::from(e.instr_capacity()) * 4,
            llc_bank_bytes: cfg.llc_bank.size_bytes,
        }
    }

    /// Total täkō state per bank.
    pub fn total_bytes(&self) -> u64 {
        self.llc_tag_bits_bytes
            + self.engine_l1d_bytes
            + self.engine_tlb_bytes
            + self.engine_rtlb_bytes
            + self.callback_buffer_bytes
            + self.token_store_bytes
            + self.instruction_memory_bytes
    }

    /// Overhead as a percentage of the LLC bank.
    pub fn percent_of_bank(&self) -> f64 {
        100.0 * self.total_bytes() as f64 / self.llc_bank_bytes as f64
    }

    /// Render the Table 2 rows.
    pub fn table(&self) -> String {
        let kib = |b: u64| b as f64 / 1024.0;
        format!(
            "L3 tags               {:>6.1} KB\n\
             Engine L1d            {:>6.1} KB\n\
             Engine TLB + rTLB     {:>6.1} KB\n\
             Callback buffer       {:>6.1} KB\n\
             Token store           {:>6.1} KB\n\
             Instruction memory    {:>6.1} KB\n\
             Total per L3 bank     {:>6.1} KB / {:.0} KB = {:.1}%\n",
            kib(self.llc_tag_bits_bytes),
            kib(self.engine_l1d_bytes),
            kib(self.engine_tlb_bytes + self.engine_rtlb_bytes),
            kib(self.callback_buffer_bytes),
            kib(self.token_store_bytes),
            kib(self.instruction_memory_bytes),
            kib(self.total_bytes()),
            kib(self.llc_bank_bytes),
            self.percent_of_bank(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_table2() {
        let r = OverheadReport::for_config(&SystemConfig::default_16core());
        // Table 2: 1 KB tag bits, 8 KB L1d, 2+2 KB TLBs, 0.5 KB callback
        // buffer, 12 KB token store, 1.6 KB instruction memory.
        assert_eq!(r.llc_tag_bits_bytes, 1024);
        assert_eq!(r.engine_l1d_bytes, 8 * 1024);
        assert_eq!(r.engine_tlb_bytes, 2 * 1024);
        assert_eq!(r.engine_rtlb_bytes, 2 * 1024);
        assert_eq!(r.callback_buffer_bytes, 512);
        assert_eq!(r.token_store_bytes, 25 * 8 * 64);
        assert_eq!(r.instruction_memory_bytes, 25 * 16 * 4);
        // Paper: 27.1 KB / 512 KB = 5.3%.
        let pct = r.percent_of_bank();
        assert!((5.0..5.6).contains(&pct), "overhead {pct}%");
    }

    #[test]
    fn table_renders() {
        let r = OverheadReport::for_config(&SystemConfig::default_16core());
        let t = r.table();
        assert!(t.contains("Token store"));
        assert!(t.contains('%'));
    }
}
