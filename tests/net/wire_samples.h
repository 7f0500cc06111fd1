// One fixed, hand-built sample of every wire payload type.  The golden-bytes
// test pins their encodings and the codec tests reuse them, so every field
// holds a non-default value: a dropped or reordered field changes the bytes.
#pragma once

#include <string>

#include "net/wire.h"

namespace nrs::wire_samples {

template <class T>
T sample();

template <>
inline HelloInfo sample<HelloInfo>() {
  return HelloInfo{5, 987654321};
}

template <>
inline SlotResult sample<SlotResult>() {
  SlotResult result;
  result.slot = 123456;
  result.processing_time_us = 231.75;
  result.sib1_decoded = true;
  result.degraded = true;
  result.sync_state = SyncState::kTracking;
  Mib mib;
  mib.sfn = 617;
  mib.scs_common = Scs::kHz30;
  mib.coreset0_rb_start = 12;
  mib.coreset0_n_prb6 = 8;
  mib.coreset0_duration = 2;
  mib.searchspace0 = 3;
  mib.cell_barred = true;
  result.mib = mib;
  for (unsigned i = 0; i < 2; ++i) {
    DecodedDci dci;
    dci.slot = result.slot;
    dci.rnti = static_cast<Rnti>(0x4601 + i);
    dci.dci.format = i == 0 ? DciFormat::kDl1_1 : DciFormat::kUl0_1;
    dci.dci.freq_alloc_riv = 0x12345 + i;
    dci.dci.time_alloc = 3;
    dci.dci.mcs = static_cast<std::uint8_t>(17 + i);
    dci.dci.ndi = 1;
    dci.dci.rv = 2;
    dci.dci.harq_id = 9;
    dci.dci.dai = 1;
    dci.dci.tpc = 2;
    dci.dci.pucch_resource = 5;
    dci.dci.harq_feedback = 4;
    dci.dci.ports = 3;
    dci.dci.srs_request = 1;
    dci.dci.dmrs_id = 1;
    dci.grant.rnti = dci.rnti;
    dci.grant.format = dci.dci.format;
    dci.grant.prb_start = 4 + i;
    dci.grant.prb_len = 40;
    dci.grant.start_symbol = 2;
    dci.grant.n_symbols = 12;
    dci.grant.mcs = 17 + i;
    dci.grant.modulation = i == 0 ? Modulation::kQam64 : Modulation::kQam256;
    dci.grant.code_rate = 0.6631;
    dci.grant.n_layers = 2;
    dci.grant.tbs = 28168;
    dci.grant.ndi = 1;
    dci.grant.rv = 2;
    dci.grant.harq_id = 9;
    dci.agg_level = 4;
    dci.cce_start = 8 * i;
    dci.is_retx = i == 1;
    result.dcis.push_back(dci);
  }
  NewUe ue;
  ue.c_rnti = 0x4603;
  ue.slot = result.slot - 4;
  ue.verified = true;
  ue.config.ue_ss.ue_specific = true;
  ue.config.ue_ss.agg_levels = {2, 4, 8};
  ue.config.ue_ss.candidates_per_level = 3;
  ue.config.dl_format = DciFormat::kDl1_0;
  ue.config.mcs_table = McsTable::kQam256;
  ue.config.max_mimo_layers = 2;
  ue.config.n_harq_processes = 8;
  result.new_ues.push_back(ue);
  return result;
}

template <>
inline MetricsSnapshot sample<MetricsSnapshot>() {
  MetricsSnapshot snapshot;
  snapshot.counters = {{"net.frames_sent", 123},
                       {"pipeline.slots_pushed", 456789}};
  snapshot.gauges = {{"net.clients", -3}};
  HistogramSnapshot hist;
  hist.name = "pipeline.demod_us";
  hist.count = 3;
  hist.sum = 12.5 + 900.0 + 1e6;
  hist.min = 12.5;
  hist.max = 1e6;
  hist.bounds = {10.0, 100.0, 1000.0};
  hist.counts = {0, 1, 1, 1};
  snapshot.histograms.push_back(hist);
  snapshot.sorted_by_name = true;
  return snapshot;
}

template <>
inline FleetSummary sample<FleetSummary>() {
  FleetSummary summary;
  summary.slot = 48000;
  summary.dcis_total = 9123;
  summary.restarts_total = 3;
  summary.dl_mbps_total = 87.25;
  summary.ul_mbps_total = 12.5;
  summary.retx_rate = 0.04;
  summary.spare_ranking = {2, 0, 1};
  for (std::uint32_t i = 0; i < 3; ++i) {
    CellSummary cell;
    cell.cell_index = i;
    cell.name = "cell" + std::to_string(i);
    cell.state = static_cast<std::uint8_t>(i == 2 ? 2 : 1);
    cell.slots = 16000 + 100 * i;
    cell.dcis = 3000 + i;
    cell.restarts = i;
    cell.active_ues = 4 - i;
    cell.dl_mbps = 30.0 - i;
    cell.ul_mbps = 4.0 + i;
    cell.retx_rate = 0.01 * i;
    cell.utilization = 0.25 * (i + 1);
    summary.cells.push_back(std::move(cell));
  }
  return summary;
}

template <>
inline QueryRequest sample<QueryRequest>() {
  QueryRequest request;
  request.correlation_id = 0x1122334455667788ull;
  request.kind = QueryKind::kAggregate;
  request.cell = 3;
  request.rnti = 0x4601;
  request.metric = 7;
  request.slot_from = 1000;
  request.slot_to = 9000;
  request.bucket_slots = 500;
  request.k = 4;
  request.op = AggregateOp::kMax;
  return request;
}

template <>
inline QueryResponse sample<QueryResponse>() {
  QueryResponse response;
  response.correlation_id = 0xCAFEBABEull;
  response.status = QueryStatus::kNotFound;
  response.kind = QueryKind::kTopK;
  response.error = "no such series";
  response.rows = {{100, 1.5}, {101, -2.25}, {105, 0.0}};
  response.buckets = {{0, 10, 55.0, 5.5, 9.0}, {500, 2, 3.0, 1.5, 2.0}};
  response.ranking = {{0, 0xFFFD, 44.5, 4000}, {2, 0xFFFD, 12.25, 3999}};
  return response;
}

template <>
inline VersionReject sample<VersionReject>() {
  return VersionReject{3, 5, 5, "unsupported protocol version 3"};
}

template <>
inline WorkerHello sample<WorkerHello>() {
  return WorkerHello{"rack3-sniffer", 12, 5, 6, 41};
}

inline WireCellSpec sample_cell_spec() {
  WireCellSpec spec;
  spec.cell_index = 5;
  spec.name = "cell5";
  spec.preset = "mosolab";
  spec.pci = 311;
  spec.n_ues = 7;
  spec.ue_rate_bps = 3.5e6;
  spec.ue_snr_db = 14.5;
  spec.sniffer_snr_db = 31.0;
  spec.seed = 0xDEADBEEFCAFEull;
  spec.incarnation = 3;
  return spec;
}

template <>
inline LeaseGrant sample<LeaseGrant>() {
  return LeaseGrant{77, 1500, 98765, 42, sample_cell_spec()};
}

template <>
inline LeaseAck sample<LeaseAck>() {
  return LeaseAck{77, 5, true, "unknown preset 'foo'", 42};
}

template <>
inline WorkerHeartbeat sample<WorkerHeartbeat>() {
  return WorkerHeartbeat{991, 42, {{11, 0, 4000, 0}, {12, 3, 250, 2}}};
}

inline CellReport sample_cell_report() {
  CellReport report;
  report.lease_id = 42;
  report.epoch = 7;
  report.cell_index = 2;
  report.cell_state = 1;
  report.slots = 12345;
  report.dcis = 6789;
  report.retx_dcis = 321;
  report.restarts = 1;
  report.active_ues = 4;
  report.dl_mbps = 17.25;
  report.ul_mbps = 4.5;
  report.retx_rate = 0.0625;
  report.utilization = 0.55;
  report.spare_prb_rate = 22.5;
  report.rows.push_back({0xFFFD, 5, 100, 3.0});
  report.rows.push_back({0xFFFD, 6, 100, 40.0});
  report.rows.push_back({0x4601, 0, 101, 8424.0});
  return report;
}

template <>
inline LeaseRevoke sample<LeaseRevoke>() {
  return LeaseRevoke{13, 4, "rebalance", 42};
}

template <>
inline CellReportBatch sample<CellReportBatch>() {
  CellReportBatch batch;
  batch.reports.push_back(sample_cell_report());
  CellReport second = sample_cell_report();
  second.lease_id = 43;
  second.cell_index = 5;
  second.rows.clear();
  batch.reports.push_back(second);
  return batch;
}

template <>
inline PredictionSet sample<PredictionSet>() {
  PredictionSet set;
  set.cell_index = 3;
  set.slot = 123456;
  set.horizon_slots = 200;
  set.model_version = 7;
  set.entries.push_back({0x4601, false, false, 2.5e6, 0.0, 0.0});
  set.entries.push_back({0x4602, true, true, 5.5e6, 4.75e6, 0.75e6});
  return set;
}

template <>
inline StandbyHello sample<StandbyHello>() {
  return StandbyHello{"standby:9201", 5};
}

template <>
inline NotPrimary sample<NotPrimary>() {
  return NotPrimary{4, "standby"};
}

template <>
inline ReplicaSnapshot sample<ReplicaSnapshot>() {
  ReplicaSnapshot snapshot;
  snapshot.epoch = 3;
  snapshot.next_lease_id = 92;
  snapshot.workers.push_back({7, "rack1", 8});
  snapshot.workers.push_back({9, "rack2", 4});
  ReplicaCell cell;
  cell.spec = sample_cell_spec();
  cell.lease_state = 2;
  cell.lease_id = 91;
  cell.worker_id = 7;
  cell.handoffs = 2;
  cell.ledger.committed_slots = 40000;
  cell.ledger.committed_dcis = 9000;
  cell.ledger.committed_retx = 300;
  cell.ledger.committed_restarts = 1;
  cell.ledger.lease_base_slot = 32000;
  cell.ledger.has_report = true;
  cell.ledger.live = sample_cell_report();
  cell.ledger.live.rows.clear();  // rows travel separately via kStoreRows
  snapshot.cells.push_back(cell);
  ReplicaCell idle;
  idle.spec = sample_cell_spec();
  idle.spec.cell_index = 6;
  snapshot.cells.push_back(idle);
  return snapshot;
}

template <>
inline ReplicaEvent sample<ReplicaEvent>() {
  ReplicaEvent event;
  event.kind = ReplicaEventKind::kCellTotals;
  event.epoch = 3;
  event.cell_index = 5;
  event.lease_id = 91;
  event.worker_id = 7;
  event.lease_state = 2;
  event.handoffs = 2;
  event.worker_name = "rack1";
  event.capacity = 8;
  event.ledger.committed_slots = 41000;
  event.ledger.committed_dcis = 9100;
  event.ledger.committed_retx = 305;
  event.ledger.committed_restarts = 1;
  event.ledger.lease_base_slot = 32000;
  event.ledger.has_report = true;
  event.ledger.live = sample_cell_report();
  event.ledger.live.rows.clear();
  event.rows.push_back({0xFFFD, 5, 41000, 3.0});
  event.rows.push_back({0x4601, 0, 41001, 8424.0});
  return event;
}

}  // namespace nrs::wire_samples
