//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) over byte slices.
//!
//! The persistent formats of this workspace — the `.sltg` grammar encoding
//! ([`crate::serialize`]) and the write-ahead log / checkpoint files of the
//! durable store — frame their payloads with this checksum so that torn
//! writes and bit rot are detected at decode time instead of surfacing as
//! corrupted grammars.
//!
//! The implementation is the reflected table-driven one, **sliced by 8**:
//! eight 256-entry tables, all built at compile time, where `TABLES[k][b]`
//! is the CRC contribution of byte `b` followed by `k` zero bytes. One step
//! XORs the state into the next 8 input bytes and looks up each byte in the
//! table for its distance to the end of the word, so 8 bytes cost 8
//! independent lookups instead of a chain of 8 dependent ones. The tail of
//! fewer than 8 bytes runs through `TABLES[0]` byte by byte. The checksum is
//! the same as the bytewise loop's for every input.

/// `TABLES[0]` is the reflected CRC-32 lookup table for polynomial
/// `0xEDB88320`; `TABLES[k]` advances `TABLES[k - 1]` by one zero byte.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `data` (initial value `!0`, final complement — the common
/// "crc32" every zlib-compatible tool computes).
pub fn crc32(data: &[u8]) -> u32 {
    update(!0, data) ^ !0
}

/// Feeds `data` into a running (pre-complement) CRC state. Start from `!0`,
/// finish by XOR-ing with `!0`; `crc32(x)` is the one-shot form.
pub fn update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        state = (state >> 8) ^ t[0][((state ^ byte as u32) & 0xFF) as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The plain bytewise loop over `TABLES[0]`: the reference the sliced
    /// loop must agree with.
    fn update_bytewise(mut state: u32, data: &[u8]) -> u32 {
        for &byte in data {
            state = (state >> 8) ^ TABLES[0][((state ^ byte as u32) & 0xFF) as usize];
        }
        state
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_update_matches_one_shot() {
        let data = b"incremental checksum over several chunks";
        let mut state = !0u32;
        for chunk in data.chunks(7) {
            state = update(state, chunk);
        }
        assert_eq!(state ^ !0, crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"some framed record payload";
        let reference = crc32(data);
        let mut copy = data.to_vec();
        for i in 0..copy.len() * 8 {
            copy[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&copy), reference, "bit flip {i} must change the CRC");
            copy[i / 8] ^= 1 << (i % 8);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any bytes below 4 KiB from every start offset mod 8, from any
        /// starting state.
        #[test]
        fn prop_sliced_matches_bytewise(
            data in prop::collection::vec(any::<u8>(), 0..4096),
            state in any::<u32>(),
        ) {
            for offset in 0..8.min(data.len() + 1) {
                let slice = &data[offset..];
                prop_assert_eq!(update(state, slice), update_bytewise(state, slice));
            }
        }

        /// `update` chained over random split points equals the one-shot
        /// checksum.
        #[test]
        fn prop_chained_updates_match_one_shot(
            data in prop::collection::vec(any::<u8>(), 0..4096),
            cuts in prop::collection::vec(0usize..4096, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut state = !0u32;
            let mut at = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                state = update(state, &data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(state ^ !0, crc32(&data));
        }
    }
}
