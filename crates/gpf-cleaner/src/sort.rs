//! Coordinate sorting of SAM records.
//!
//! The canonical SAM coordinate order: `(contig id, position)`, with
//! unmapped records after all mapped ones. Ties break by name then flags so
//! the order is total and deterministic — important because the engine's
//! shuffles must be reproducible for the experiment tables.

use gpf_formats::sam::{SamRecord, NO_CONTIG};

/// Total sort key for coordinate order.
pub fn coordinate_key(r: &SamRecord) -> (u32, u64, String, u16) {
    let contig = if r.flags.is_mapped() { r.contig } else { NO_CONTIG };
    (contig, r.pos, r.name.clone(), r.flags.0)
}

/// Sort records in place by coordinate.
pub fn coordinate_sort(records: &mut [SamRecord]) {
    records.sort_by_key(coordinate_key);
}

/// Check coordinate order (unmapped-last included).
pub fn is_coordinate_sorted(records: &[SamRecord]) -> bool {
    records.windows(2).all(|w| coordinate_key(&w[0]) <= coordinate_key(&w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_formats::sam::SamFlags;
    use gpf_formats::Cigar;

    fn rec(name: &str, contig: u32, pos: u64, mapped: bool) -> SamRecord {
        let mut r = SamRecord::unmapped(name, b"ACGT".to_vec(), b"IIII".to_vec());
        if mapped {
            r.flags.clear(SamFlags::UNMAPPED);
            r.contig = contig;
            r.pos = pos;
            r.cigar = Cigar::parse("4M").unwrap();
        }
        r
    }

    #[test]
    fn sorts_by_contig_then_pos() {
        let mut v = vec![
            rec("c", 1, 5, true),
            rec("a", 0, 100, true),
            rec("b", 0, 7, true),
        ];
        coordinate_sort(&mut v);
        let names: Vec<&str> = v.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["b", "a", "c"]);
        assert!(is_coordinate_sorted(&v));
    }

    #[test]
    fn unmapped_sort_last() {
        let mut v = vec![rec("u", 0, 0, false), rec("m", 3, 999, true)];
        coordinate_sort(&mut v);
        assert_eq!(v[0].name, "m");
        assert_eq!(v[1].name, "u");
    }

    #[test]
    fn deterministic_tie_break() {
        let mut v = vec![rec("b", 0, 5, true), rec("a", 0, 5, true)];
        coordinate_sort(&mut v);
        assert_eq!(v[0].name, "a");
    }

    #[test]
    fn empty_and_single_are_sorted() {
        assert!(is_coordinate_sorted(&[]));
        assert!(is_coordinate_sorted(&[rec("x", 0, 0, true)]));
    }
}
