//! Checksums for the durable layer.
//!
//! Two polynomials, two jobs:
//!
//! * [`crc64`] (ECMA-182) guards **pages**: an 8-byte trailer at
//!   `PAGE_SIZE - 8` over the content area, stamped by the disk on every
//!   page write and verified on every buffer-pool miss. CRC64's minimum
//!   distance guarantees every single-bit flip (and every burst ≤ 64
//!   bits) in an 8 KiB page changes the checksum.
//! * [`crc32`] (IEEE 802.3) guards **WAL records**: a 4-byte field in
//!   each record frame over `payload ++ LSN`, verified during scan and
//!   replay. Embedding the record's LSN means a record that was shifted
//!   within the stream (a lying fsync dropped its predecessor) fails
//!   verification even though its bytes are individually intact.
//!
//! Both are computed slice-by-8: eight 256-entry tables per polynomial,
//! so each 8-byte word of input costs eight independent table lookups
//! instead of a chain of eight dependent ones. The output is bit-identical
//! to the classic bytewise algorithm (table 0 is its table; the tests
//! compare against a bytewise reference). The tables are built in `const`
//! context: no lazy init, no locks, no first-use latency on the recovery
//! path.

/// Reflected CRC-64/ECMA-182 polynomial (normal form 0x42F0E1EBA9EA3693).
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Reflected CRC-32/IEEE polynomial (normal form 0x04C11DB7).
const CRC32_POLY: u64 = 0xEDB8_8320;

/// Slice-by-8 tables for a reflected polynomial of up to 64 bits:
/// `t[0][b]` is the CRC of byte `b`, and `t[k][b]` advances `t[k - 1][b]`
/// past one more zero byte, i.e. the contribution of a byte `k` positions
/// before the end of an 8-byte word.
const fn slice8_tables(poly: u64) -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ poly
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC64_TABLES: [[u64; 256]; 8] = slice8_tables(CRC64_POLY);
static CRC32_TABLES: [[u64; 256]; 8] = slice8_tables(CRC32_POLY);

/// Advance a pre-inverted reflected CRC register over `data`. A 32-bit
/// CRC occupies the register's low half and its tables' entries never
/// set the high half, so one loop serves both polynomials.
fn update(mut crc: u64, data: &[u8], t: &[[u64; 256]; 8]) -> u64 {
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let x = crc ^ u64::from_le_bytes(*w);
        crc = t[7][(x & 0xFF) as usize]
            ^ t[6][((x >> 8) & 0xFF) as usize]
            ^ t[5][((x >> 16) & 0xFF) as usize]
            ^ t[4][((x >> 24) & 0xFF) as usize]
            ^ t[3][((x >> 32) & 0xFF) as usize]
            ^ t[2][((x >> 40) & 0xFF) as usize]
            ^ t[1][((x >> 48) & 0xFF) as usize]
            ^ t[0][(x >> 56) as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc as u8) ^ b) as usize];
    }
    crc
}

/// CRC-64/ECMA-182 over `data` (init/xorout all-ones).
pub fn crc64(data: &[u8]) -> u64 {
    !update(u64::MAX, data, &CRC64_TABLES)
}

/// CRC-32/IEEE over `data` (init/xorout all-ones).
pub fn crc32(data: &[u8]) -> u32 {
    !(update(u32::MAX.into(), data, &CRC32_TABLES) as u32)
}

/// CRC-32 of a WAL record: `payload ++ lsn.to_le_bytes()`. The LSN is
/// folded in *after* the payload so verification needs no copy.
pub fn wal_record_crc(payload: &[u8], lsn: u64) -> u32 {
    let crc = update(u32::MAX.into(), payload, &CRC32_TABLES);
    !(update(crc, &lsn.to_le_bytes(), &CRC32_TABLES) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_answer() {
        // CRC-32/IEEE of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc64_known_answer() {
        // CRC-64/XZ (reflected ECMA-182) of "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn single_bit_flips_change_both_crcs() {
        let data = vec![0xA5u8; 512];
        let base32 = crc32(&data);
        let base64 = crc64(&data);
        for byte in [0usize, 100, 511] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base32, "crc32 missed {byte}:{bit}");
                assert_ne!(crc64(&flipped), base64, "crc64 missed {byte}:{bit}");
            }
        }
    }

    /// The classic bytewise algorithm: one table lookup per input byte,
    /// the bit-at-a-time table built on the spot.
    fn bytewise(poly: u64, init: u64, data: &[u8]) -> u64 {
        let mut table = [0u64; 256];
        for (i, e) in table.iter_mut().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ poly
                } else {
                    crc >> 1
                };
            }
            *e = crc;
        }
        let mut crc = init;
        for &b in data {
            crc = (crc >> 8) ^ table[((crc as u8) ^ b) as usize];
        }
        !crc & init
    }

    fn ref_crc64(data: &[u8]) -> u64 {
        bytewise(CRC64_POLY, u64::MAX, data)
    }

    fn ref_crc32(data: &[u8]) -> u32 {
        bytewise(CRC32_POLY, u32::MAX.into(), data) as u32
    }

    #[test]
    fn slice_by_8_matches_bytewise_reference() {
        // Deterministic pseudo-random bytes (xorshift), long enough for a
        // full page content area plus unaligned starts.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..crate::storage::page::PAGE_CONTENT + 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let mut lens: Vec<usize> = (0..=64).collect();
        lens.push(crate::storage::page::PAGE_CONTENT);
        for start in 0..8 {
            for &len in &lens {
                let d = &data[start..start + len];
                assert_eq!(crc32(d), ref_crc32(d), "crc32 start={start} len={len}");
                assert_eq!(crc64(d), ref_crc64(d), "crc64 start={start} len={len}");
                for lsn in [0u64, 1, 0x0123_4567_89AB_CDEF] {
                    let mut concat = d.to_vec();
                    concat.extend_from_slice(&lsn.to_le_bytes());
                    assert_eq!(wal_record_crc(d, lsn), ref_crc32(&concat));
                }
            }
        }
    }

    #[test]
    fn wal_record_crc_binds_the_lsn() {
        let payload = b"record payload";
        let a = wal_record_crc(payload, 10);
        let b = wal_record_crc(payload, 11);
        assert_ne!(a, b);
        // Equivalent to hashing the concatenation explicitly.
        let mut concat = payload.to_vec();
        concat.extend_from_slice(&10u64.to_le_bytes());
        assert_eq!(a, crc32(&concat));
    }
}
