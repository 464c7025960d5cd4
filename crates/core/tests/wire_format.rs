//! The BATCH payload as bytes: a checked-in golden payload pins the layout
//! `docs/PROTOCOL.md` documents, and a hostile-input sweep over a real
//! wide-result frame shows the decoder neither panics nor allocates more
//! than a small multiple of what it was handed.

use cohana_activity::{generate, GeneratorConfig, Schema, TableBuilder, TimeBin, Timestamp, Value};
use cohana_core::{
    AggFunc, CohortQuery, EngineError, PlannerOptions, ReportAssembler, Statement, WireBatch,
};
use cohana_storage::{ChunkSource, CompressedTable, CompressionOptions};
use std::sync::Arc;

/// The storage unit tests' allocator: the system's, noting the largest
/// request per thread (tests run on their own threads).
#[path = "../../storage/src/test_alloc.rs"]
mod test_alloc;

#[global_allocator]
static ALLOCATOR: test_alloc::LargestRequest = test_alloc::LargestRequest;

/// Every batch of `query` over `table` held in one chunk per `chunk_rows`.
fn batches(
    table: &cohana_activity::ActivityTable,
    query: &CohortQuery,
    chunk_rows: usize,
) -> (Statement, Vec<WireBatch>) {
    let source: Arc<dyn ChunkSource> = Arc::new(
        CompressedTable::build(table, CompressionOptions::with_chunk_size(chunk_rows)).unwrap(),
    );
    let stmt = Statement::over(source, query, PlannerOptions::default(), 1).unwrap();
    let wire = stmt.stream().map(|b| stmt.wire_batch(&b.unwrap())).collect();
    (stmt, wire)
}

/// Three players, ten tuples (the paper's Table 1, with `session` carrying
/// negative values so an integer key part exercises the zig-zag coding).
fn golden_table() -> cohana_activity::ActivityTable {
    let rows: [([&str; 6], i64, i64); 10] = [
        (["001", "2013/05/19:1000", "launch", "Australia", "Sydney", "dwarf"], -2, 0),
        (["001", "2013/05/20:0800", "shop", "Australia", "Sydney", "dwarf"], 15, 50),
        (["001", "2013/05/20:1400", "shop", "Australia", "Sydney", "dwarf"], 30, 100),
        (["001", "2013/05/21:1400", "shop", "Australia", "Sydney", "assassin"], 20, 50),
        (["001", "2013/05/22:0900", "fight", "Australia", "Sydney", "assassin"], 5, 0),
        (["002", "2013/05/20:0900", "launch", "United States", "Chicago", "wizard"], 8, 0),
        (["002", "2013/05/21:1500", "shop", "United States", "Chicago", "wizard"], 12, 30),
        (["002", "2013/05/29:1700", "shop", "United States", "Chicago", "wizard"], 9, 40),
        (["003", "2013/05/20:1000", "launch", "Australia", "Perth", "bandit"], -70, 0),
        (["003", "2013/05/21:1000", "fight", "Australia", "Perth", "bandit"], 11, 0),
    ];
    let mut b = TableBuilder::new(Schema::game_actions());
    for ([player, time, action, country, city, role], session, gold) in rows {
        let time = Timestamp::parse(time).unwrap().secs();
        let row: [Value; 8] = [
            player.into(),
            time.into(),
            action.into(),
            country.into(),
            city.into(),
            role.into(),
            session.into(),
            gold.into(),
        ];
        b.push(row.to_vec()).unwrap();
    }
    b.finish().unwrap()
}

#[test]
fn golden_batch_payload_is_pinned() {
    let query = CohortQuery::builder("launch")
        .cohort_by(["country", "session"])
        .cohort_by_time(TimeBin::Week)
        .aggregate(AggFunc::sum("gold"))
        .aggregate(AggFunc::avg("gold"))
        .aggregate(AggFunc::min("gold"))
        .aggregate(AggFunc::max("gold"))
        .aggregate(AggFunc::count())
        .aggregate(AggFunc::user_count())
        .build()
        .unwrap();
    let (stmt, wire) = batches(&golden_table(), &query, 1 << 16);
    assert_eq!(wire.len(), 1, "ten tuples fit one chunk");
    let batch = &wire[0];
    assert_eq!((batch.num_cohorts(), batch.num_cells()), (3, 6));

    let golden: &[u8] = include_bytes!("fixtures/batch_v2.bin");
    let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    assert_eq!(hex(&batch.encode()), hex(golden), "the engine's BATCH bytes moved");
    let decoded = WireBatch::decode(golden).expect("golden payload decodes");
    assert_eq!(&decoded, batch);
    assert_eq!(decoded.encode(), golden, "re-encoding is byte-identical");

    // And what it decodes to is the report the engine gives.
    let mut asm = ReportAssembler::new(
        query.cohort_by.iter().map(|c| c.to_string()).collect(),
        query.aggregates.iter().map(|a| a.header()).collect(),
    );
    asm.push(&decoded).unwrap();
    assert_eq!(asm.finish(), stmt.execute().unwrap());
}

#[test]
fn hostile_batch_payloads_fail_cleanly_and_allocate_little() {
    // QW of the repo benchmark: a three-attribute key, hundreds of cells.
    let query = CohortQuery::builder("launch")
        .cohort_by(["country", "city", "role"])
        .aggregate(AggFunc::user_count())
        .aggregate(AggFunc::sum("gold"))
        .build()
        .unwrap();
    let (_, wire) = batches(&generate(&GeneratorConfig::small()), &query, 1 << 20);
    let frame = wire[0].encode();
    assert!(wire[0].num_cells() > 500 && frame.len() > 4096, "{} bytes", frame.len());

    // In memory a state is 24 bytes where the payload spent at least one,
    // and a growing vector may hold twice what it needs.
    let limit = 64 * frame.len();
    let decode = |bytes: &[u8], what: &dyn Fn() -> String| {
        test_alloc::reset_largest();
        let result = WireBatch::decode(bytes);
        let largest = test_alloc::largest();
        assert!(largest <= limit, "{}: one allocation of {largest} bytes", what());
        assert!(matches!(result, Ok(_) | Err(EngineError::Corrupt(_))), "{}: {result:?}", what());
        result.is_ok()
    };

    assert!(decode(&frame, &|| "intact".into()));
    for cut in 0..frame.len() {
        assert!(!decode(&frame[..cut], &|| format!("cut at {cut}")), "cut at {cut} decoded");
    }
    let mut bent = frame.clone();
    for bit in 0..4096 * 8 {
        bent[bit / 8] ^= 1 << (bit % 8);
        decode(&bent, &|| format!("bit {bit} flipped"));
        bent[bit / 8] ^= 1 << (bit % 8);
    }
}
