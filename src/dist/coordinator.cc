#include "dist/coordinator.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/backoff.h"
#include "common/rng.h"
#include "fleet/aggregator.h"

namespace nrs {

namespace {

/// Accepted connections beyond this are closed on arrival.
constexpr std::size_t kMaxConnections = 64;
/// Primary -> replica keepalive period (lets the standby tell a wedged
/// primary from an idle one).
constexpr double kReplicationHeartbeatS = 0.05;
/// Standby: no replication traffic for this long -> the link is dead.
constexpr double kReplicationTimeoutS = 0.6;
/// Standby: how long the primary must stay unreachable (after a synced
/// tail) before promotion.  Guards against promoting on a transient
/// replication-link blip while the primary is still serving workers.
constexpr double kPromoteAfterS = 0.3;
/// Standby upstream redial backoff (jittered like every other path).
constexpr BackoffPolicy kUpstreamBackoff{0.05, 0.5};

std::chrono::steady_clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

LeaseState to_lease_state(std::uint8_t raw) {
  switch (raw) {
    case 1: return LeaseState::kPending;
    case 2: return LeaseState::kActive;
    default: return LeaseState::kUnassigned;
  }
}

}  // namespace

CellReport lifetime_report(const CellLedger& ledger, const Lease& lease) {
  static const CellReport kNoReport{};
  const CellReport& current = ledger.has_report ? ledger.live : kNoReport;
  CellReport r;
  if (ledger.has_report && lease.state == LeaseState::kActive) {
    r = ledger.live;
  } else {
    // kBackoff is the honest description of an unassigned cell: down now,
    // the supervisor (here: the lease table) intends to bring it back.
    r.cell_state = 1;
  }
  r.cell_index = lease.cell_index;
  r.slots = ledger.committed_slots + current.slots;
  r.dcis = ledger.committed_dcis + current.dcis;
  r.retx_dcis = ledger.committed_retx + current.retx_dcis;
  r.restarts = ledger.committed_restarts + lease.handoffs + current.restarts;
  r.retx_rate = r.dcis > 0 ? static_cast<double>(r.retx_dcis) /
                                 static_cast<double>(r.dcis)
                           : 0.0;
  return r;
}

const char* to_string(CoordinatorRole role) {
  switch (role) {
    case CoordinatorRole::kPrimary: return "primary";
    case CoordinatorRole::kStandby: return "standby";
  }
  return "unknown";
}

FleetCoordinator::FleetCoordinator(CoordinatorConfig config,
                                   MetricsRegistry* registry)
    : config_(std::move(config)),
      own_registry_(registry == nullptr ? std::make_unique<MetricsRegistry>()
                                        : nullptr),
      registry_(registry != nullptr ? registry : own_registry_.get()),
      leases_(config_.cells.size(),
              LeaseTable::Config{config_.lease_ttl_ms / 1000.0,
                                 config_.backoff_initial_s,
                                 config_.backoff_max_s}),
      store_(config_.store, registry_) {
  if (!config_.standby_of.empty()) {
    role_ = CoordinatorRole::kStandby;
    const auto primary = parse_endpoint(config_.standby_of);
    if (!primary) {
      throw std::invalid_argument(
          "FleetCoordinator: bad standby_of endpoint " + config_.standby_of);
    }
    upstream_redial_.emplace(
        std::vector<TcpEndpoint>{*primary}, kUpstreamBackoff,
        splitmix64(config_.seed ^ 0x5AFE57A2ull) | 1ull);
    // A standby's state (including the cell list) comes from the primary's
    // snapshot; epoch 0 marks "never synced".
    epoch_ = 0;
  } else {
    if (config_.cells.empty()) {
      throw std::invalid_argument("FleetCoordinator: no cells configured");
    }
    epoch_ = 1;
  }
  records_.reserve(config_.cells.size());
  for (std::uint32_t i = 0; i < config_.cells.size(); ++i) {
    const CoordinatorCellSpec& cell = config_.cells[i];
    const std::uint64_t seed = splitmix64(
        config_.seed ^ splitmix64((static_cast<std::uint64_t>(i) << 32) |
                                  0x5EEDull));
    records_.push_back(CellRecord{
        .spec = WireCellSpec{
            .cell_index = i,
            .name = cell.name.empty() ? "cell" + std::to_string(i)
                                      : cell.name,
            .preset = cell.preset,
            .pci = cell.pci,
            .n_ues = cell.n_ues,
            .ue_rate_bps = cell.ue_rate_bps,
            .ue_snr_db = cell.ue_snr_db,
            .sniffer_snr_db = cell.sniffer_snr_db,
            // 0 would disable the worker-side override.
            .seed = std::max<std::uint64_t>(seed, 1),
        }});
  }
  m_leases_granted_ = &registry_->counter("dist.leases_granted");
  m_leases_expired_ = &registry_->counter("dist.leases_expired");
  m_lease_refusals_ = &registry_->counter("dist.lease_refusals");
  m_reassignments_ = &registry_->counter("dist.reassignments");
  m_workers_dead_ = &registry_->counter("dist.workers_dead");
  m_stale_reports_ = &registry_->counter("dist.stale_reports");
  m_predictions_rx_ = &registry_->counter("dist.predictions_received");
  m_version_rejects_ = &registry_->counter("dist.version_rejects");
  m_revokes_ = &registry_->counter("dist.lease_revokes");
  m_promotions_ctr_ = &registry_->counter("dist.promotions");
  m_reconfirmed_ = &registry_->counter("dist.leases_reconfirmed");
  m_deposed_ctr_ = &registry_->counter("dist.deposed");
  m_not_primary_tx_ = &registry_->counter("dist.not_primary_sent");
  m_replica_events_tx_ = &registry_->counter("dist.replica_events_tx");
  m_replica_events_rx_ = &registry_->counter("dist.replica_events_rx");
  m_replica_snapshots_tx_ = &registry_->counter("dist.replica_snapshots_tx");
  m_replica_snapshots_rx_ = &registry_->counter("dist.replica_snapshots_rx");
  m_workers_alive_ = &registry_->gauge("dist.workers_alive");
  m_cells_active_ = &registry_->gauge("dist.cells_active");
  m_epoch_gauge_ = &registry_->gauge("dist.epoch");
  m_epoch_gauge_->set(static_cast<std::int64_t>(epoch_));

  const TcpListener listener =
      listen_tcp(config_.bind_address, config_.port);
  listen_fd_ = listener.fd;
  port_ = listener.port;

  io_ = std::thread([this] { io_loop(); });
}

FleetCoordinator::~FleetCoordinator() { stop(); }

void FleetCoordinator::stop() {
  if (stopping_.exchange(true)) {
    if (io_.joinable()) {
      io_.join();
    }
    return;
  }
  if (io_.joinable()) {
    io_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::lock_guard lock(state_mutex_);
  for (auto& conn : connections_) {
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  connections_.clear();
  upstream_ = nullptr;
}

void FleetCoordinator::io_loop() {
  std::vector<pollfd> pfds;
  std::vector<Connection*> polled;
  while (!stopping_.load()) {
    maybe_connect_upstream();
    pfds.clear();
    polled.clear();
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    {
      std::lock_guard lock(state_mutex_);
      // Sweep connections closed in the previous round.
      connections_.erase(
          std::remove_if(connections_.begin(), connections_.end(),
                         [](const std::unique_ptr<Connection>& c) {
                           return c->fd < 0;
                         }),
          connections_.end());
      for (auto& conn : connections_) {
        pfds.push_back(pollfd{conn->fd, POLLIN, 0});
        polled.push_back(conn.get());
      }
    }
    const int ready = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/20);
    const auto now = Clock::now();
    std::lock_guard lock(state_mutex_);
    if (ready > 0) {
      for (std::size_t i = 1; i < pfds.size(); ++i) {
        if (pfds[i].revents != 0 && polled[i - 1]->fd >= 0) {
          read_connection(*polled[i - 1], now);
        }
      }
      if ((pfds[0].revents & POLLIN) != 0) {
        handle_accept();
      }
    }
    run_timers(now);
  }
}

void FleetCoordinator::handle_accept() {
  // Bound synchronous sends: a worker that stops draining its socket
  // fails the send and is declared dead, instead of wedging the io thread.
  const int fd = accept_tcp(listen_fd_, /*bound_sends=*/true);
  if (fd < 0) {
    return;
  }
  if (connections_.size() >= kMaxConnections) {
    ::close(fd);
    return;
  }
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  connections_.push_back(std::move(conn));
}

void FleetCoordinator::close_connection(Connection& conn) {
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
  if (&conn == upstream_) {
    upstream_ = nullptr;
  }
}

void FleetCoordinator::read_connection(Connection& conn,
                                       Clock::time_point now) {
  const ReadResult result =
      read_frames(conn.fd, conn.parser, [&](const Frame& frame) {
        handle_frame(conn, frame);
        return conn.fd >= 0;  // false: the frame handler closed it
      });
  if (conn.is_upstream && result.bytes > 0) {
    upstream_last_rx_ = now;
  }
  if (result.status == ReadStatus::kOpen) {
    return;
  }
  if (result.rejected_version) {
    m_version_rejects_->inc();
    const std::vector<std::uint8_t> reply =
        version_reject_frame(*result.rejected_version);
    send_all(conn.fd, reply.data(), reply.size());
  }
  if (conn.is_upstream) {
    // EOF: the primary died (or dropped us).  Promotion is standby_timers'
    // decision — it waits kPromoteAfterS in case this was a blip.
    drop_upstream(/*healthy=*/result.status == ReadStatus::kClosed);
    return;
  }
  // EOF is the fast death-detection path — a kill -9'd worker's kernel
  // closes the socket long before the heartbeat timeout fires.
  const std::uint64_t worker = conn.worker_id;
  close_connection(conn);
  if (worker != 0) {
    declare_worker_dead(worker);
  }
}

void FleetCoordinator::handle_frame(Connection& conn, const Frame& frame) {
  if (conn.is_upstream) {
    handle_replication_frame(frame);
    return;
  }
  switch (frame.type) {
    case FrameType::kWorkerHello:
      return on(conn, frame, &FleetCoordinator::handle_worker_hello);
    case FrameType::kStandbyHello:
      return on(conn, frame, &FleetCoordinator::handle_standby_hello);
    case FrameType::kLeaseAck:
      return on(conn, frame, &FleetCoordinator::handle_lease_ack);
    case FrameType::kWorkerHeartbeat:
      return on(conn, frame, &FleetCoordinator::handle_heartbeat);
    case FrameType::kCellReportBatch:
      return on(conn, frame, &FleetCoordinator::handle_report_batch);
    case FrameType::kPrediction:
      return on(conn, frame, &FleetCoordinator::handle_prediction);
    default:
      return;  // well-framed but not part of the coordination protocol
  }
}

template <class Payload>
void FleetCoordinator::on(Connection& conn, const Frame& frame,
                          void (FleetCoordinator::*handler)(Connection&,
                                                            Payload)) {
  if (auto payload = decode<std::remove_cvref_t<Payload>>(frame.payload)) {
    (this->*handler)(conn, std::move(*payload));
  }
}

void FleetCoordinator::handle_report_batch(Connection& conn,
                                           CellReportBatch batch) {
  // Workers fold all their leases' reports into one frame; each element
  // goes through the same per-report path.
  for (CellReport& report : batch.reports) {
    handle_cell_report(conn, std::move(report));
  }
}

void FleetCoordinator::handle_worker_hello(Connection& conn,
                                           const WorkerHello& hello) {
  if (hello.epoch > epoch_) {
    // The worker follows a newer primary: a standby promoted past us.
    fence_self();
  }
  if (role_ == CoordinatorRole::kStandby || deposed_) {
    reply_not_primary(conn);
    return;
  }
  if (conn.worker_id != 0) {
    return;  // duplicate hello; keep the first registration
  }
  const auto now = Clock::now();
  const std::string name = hello.name.empty() ? "worker" : hello.name;
  const std::uint32_t capacity = std::max<std::uint32_t>(1, hello.capacity);
  conn.worker_id = catalog_.add(name, capacity, conn.fd, now);
  ReplicaEvent event;
  event.kind = ReplicaEventKind::kWorkerJoin;
  event.worker_id = conn.worker_id;
  event.worker_name = name;
  event.capacity = capacity;
  replicate(std::move(event));
  if (config_.rebalance_on_join && now >= rebalance_hold_until_) {
    rebalance(now);
  }
}

void FleetCoordinator::reply_not_primary(Connection& conn) {
  m_not_primary_tx_->inc();
  NotPrimary info;
  info.epoch = epoch_;
  info.message = role_ == CoordinatorRole::kStandby ? "standby" : "deposed";
  const std::vector<std::uint8_t> reply = frame(info);
  send_all(conn.fd, reply.data(), reply.size());
  close_connection(conn);
}

void FleetCoordinator::handle_standby_hello(Connection& conn,
                                            const StandbyHello& /*hello*/) {
  if (conn.worker_id != 0 || conn.is_replica) {
    return;
  }
  if (role_ != CoordinatorRole::kPrimary || deposed_) {
    reply_not_primary(conn);
    return;
  }
  conn.is_replica = true;
  const std::vector<std::uint8_t> snapshot = frame(build_snapshot());
  if (!send_all(conn.fd, snapshot.data(), snapshot.size())) {
    close_connection(conn);
    return;
  }
  m_replica_snapshots_tx_->inc();
}

void FleetCoordinator::handle_lease_ack(Connection& conn,
                                        const LeaseAck& ack) {
  if (ack.epoch > epoch_) {
    fence_self();
    return;
  }
  Lease* lease = leases_.by_id(ack.lease_id);
  if (lease == nullptr || lease->worker_id != conn.worker_id) {
    m_stale_reports_->inc();
    return;
  }
  const auto now = Clock::now();
  if (!ack.accepted) {
    m_lease_refusals_->inc();
    end_lease(lease->cell_index, /*penalize=*/true, now);
    return;
  }
  leases_.ack(ack.lease_id, true, now);
  replicate(cell_event(ReplicaEventKind::kLeaseRenew, lease->cell_index));
}

void FleetCoordinator::handle_heartbeat(Connection& conn,
                                        const WorkerHeartbeat& hb) {
  if (conn.worker_id == 0) {
    return;  // heartbeat before hello: not a registered worker
  }
  if (hb.epoch > epoch_) {
    fence_self();
    return;
  }
  const auto now = Clock::now();
  catalog_.touch(conn.worker_id, now);
  if (deposed_) {
    return;  // fenced: stop renewing, the new primary owns these leases
  }
  for (const LeaseStatus& status : hb.leases) {
    Lease* lease = leases_.by_id(status.lease_id);
    if (lease == nullptr) {
      continue;  // stale lease (already reassigned); the worker will learn
    }
    if (lease->worker_id != conn.worker_id) {
      // Re-confirmation: the lease was mirrored from the dead primary and
      // its recorded holder is a ghost (no socket).  The worker kept the
      // cell running locally and reconnected here — rebind the same lease
      // to its new registration instead of reassigning the cell.
      const std::uint64_t ghost_id = lease->worker_id;
      const WorkerEntry* holder = catalog_.find(ghost_id);
      if (holder != nullptr && holder->alive && holder->fd >= 0) {
        continue;  // live holder elsewhere: a stale claim, ignore it
      }
      leases_.rebind(status.lease_id, conn.worker_id);
      if (holder != nullptr && leases_.held_by(ghost_id).empty()) {
        catalog_.remove(ghost_id);
        ReplicaEvent leave;
        leave.kind = ReplicaEventKind::kWorkerLeave;
        leave.worker_id = ghost_id;
        replicate(std::move(leave));
      }
      ++reconfirmations_;
      m_reconfirmed_->inc();
      replicate(
          cell_event(ReplicaEventKind::kLeaseRenew, lease->cell_index));
    }
    leases_.renew(status.lease_id, now);
    // Renewal grant: restart the worker-side TTL clock (and teach a
    // re-confirmed worker the current epoch).  Same lease id, same spec
    // by construction.
    LeaseGrant grant;
    grant.lease_id = status.lease_id;
    grant.ttl_ms = config_.lease_ttl_ms;
    grant.base_slot = records_[lease->cell_index].ledger.lease_base_slot;
    grant.epoch = epoch_;
    grant.spec = wire_spec(lease->cell_index, lease->handoffs);
    send_to_worker(conn.worker_id, frame(grant));
  }
}

void FleetCoordinator::handle_cell_report(Connection& conn,
                                          CellReport report) {
  if (report.epoch > epoch_) {
    fence_self();
    return;
  }
  const std::uint32_t cell = report.cell_index;
  Lease* lease = leases_.by_id(report.lease_id);
  if (lease == nullptr || lease->worker_id != conn.worker_id ||
      lease->cell_index != cell || cell >= records_.size()) {
    m_stale_reports_->inc();
    return;
  }
  CellLedger& ledger = records_[cell].ledger;
  if (ledger.has_report && report.slots > ledger.live.slots) {
    leases_.note_progress(cell);
  }
  // The rows go to the store; the ledger keeps the report without them.
  const std::vector<StoreRowUpdate> rows = std::move(report.rows);
  ledger.live = std::move(report);
  ledger.has_report = true;
  const bool mirror = has_replica();
  std::vector<StoreRowUpdate> mirrored_rows;
  ingest_rows(cell, rows, ledger.lease_base_slot,
              mirror ? &mirrored_rows : nullptr);
  if (mirror) {
    replicate(cell_event(ReplicaEventKind::kCellTotals, cell));
    if (!mirrored_rows.empty()) {
      ReplicaEvent store_rows;
      store_rows.kind = ReplicaEventKind::kStoreRows;
      store_rows.cell_index = cell;
      store_rows.rows = std::move(mirrored_rows);
      replicate(std::move(store_rows));
    }
  }
}

void FleetCoordinator::handle_prediction(Connection& conn,
                                         const PredictionSet& set) {
  if (conn.worker_id == 0 || set.cell_index >= records_.size()) {
    m_stale_reports_->inc();
    return;  // never greeted, or a cell this fleet does not run
  }
  predictions_[set.cell_index] = set;
  m_predictions_rx_->inc();
}

std::map<std::uint32_t, PredictionSet> FleetCoordinator::predictions() const {
  std::lock_guard lock(state_mutex_);
  return predictions_;
}

void FleetCoordinator::ingest_rows(std::uint32_t cell_index,
                                   const std::vector<StoreRowUpdate>& rows,
                                   std::uint64_t base_slot,
                                   std::vector<StoreRowUpdate>* replicated) {
  auto& cursors = records_[cell_index].cursors;
  std::uint64_t ingested = 0;
  for (const StoreRowUpdate& row : rows) {
    if (!store_metric_valid(row.metric)) {
      continue;
    }
    SeriesKey key;
    key.cell = cell_index;
    key.rnti = row.rnti;
    key.metric = static_cast<StoreMetric>(row.metric);
    auto& cursor = cursors[key.packed()];
    if (cursor.series == nullptr) {
      cursor.series = store_.series(key);
      if (cursor.series == nullptr) {
        continue;  // max_series shedding
      }
    }
    // Rebase onto the cell's lifetime axis; clamp non-decreasing across
    // handoffs and replication reconnects (the store's single-writer
    // append contract).
    std::uint64_t slot = base_slot + row.slot;
    if (cursor.started && slot < cursor.last_slot) {
      slot = cursor.last_slot;
    }
    cursor.series->append(slot, row.value);
    cursor.last_slot = slot;
    cursor.started = true;
    ++ingested;
    if (replicated != nullptr) {
      StoreRowUpdate global = row;
      global.slot = slot;
      replicated->push_back(global);
    }
  }
  if (ingested > 0) {
    store_.note_rows_ingested(ingested);
  }
}

void FleetCoordinator::run_timers(Clock::time_point now) {
  if (role_ == CoordinatorRole::kStandby) {
    standby_timers(now);
    return;
  }
  // Dead-worker scan: heartbeat silence past the timeout.  Ghost entries
  // mirrored at promotion age out the same way when their worker never
  // reconnects, releasing the cells for normal reassignment.
  for (const std::uint64_t id :
       catalog_.silent_since(now, config_.heartbeat_timeout_s)) {
    declare_worker_dead(id);
  }
  if (!deposed_) {
    // Lease-expiry scan: a worker that is alive but stopped listing (or
    // renewing) a lease loses the cell.
    for (const std::uint32_t cell : leases_.expired(now)) {
      const std::uint64_t lease_id = leases_.cell(cell).lease_id;
      const std::uint64_t holder = leases_.cell(cell).worker_id;
      m_leases_expired_->inc();
      end_lease(cell, /*penalize=*/true, now);
      m_reassignments_->inc();
      LeaseRevoke revoke;
      revoke.lease_id = lease_id;
      revoke.cell_index = cell;
      revoke.reason = "lease expired";
      revoke.epoch = epoch_;
      send_to_worker(holder, frame(revoke));
    }
    // Assignment scan: place unassigned cells whose backoff has elapsed.
    for (const std::uint32_t cell : leases_.assignable(now)) {
      try_assign(cell, now);
    }
    // Replication keepalive: lets a standby tell an idle primary from a
    // dead one without waiting for fleet traffic.
    if (now >= next_replica_heartbeat_) {
      next_replica_heartbeat_ = now + to_duration(kReplicationHeartbeatS);
      send_to_replicas(heartbeat_frame());
    }
  }
  m_workers_alive_->set(static_cast<std::int64_t>(catalog_.alive_count()));
  m_cells_active_->set(static_cast<std::int64_t>(leases_.active_count()));
}

void FleetCoordinator::declare_worker_dead(std::uint64_t worker_id) {
  const WorkerEntry* entry = catalog_.find(worker_id);
  if (entry == nullptr || !entry->alive) {
    return;
  }
  catalog_.mark_dead(worker_id);
  m_workers_dead_->inc();
  for (auto& conn : connections_) {
    if (conn->worker_id == worker_id) {
      close_connection(*conn);
    }
  }
  const auto now = Clock::now();
  for (const std::uint32_t cell : leases_.held_by(worker_id)) {
    end_lease(cell, /*penalize=*/true, now);
    m_reassignments_->inc();
  }
  catalog_.remove(worker_id);
  ReplicaEvent event;
  event.kind = ReplicaEventKind::kWorkerLeave;
  event.worker_id = worker_id;
  replicate(std::move(event));
}

void FleetCoordinator::end_lease(std::uint32_t cell_index, bool penalize,
                                 Clock::time_point now) {
  CellLedger& ledger = records_[cell_index].ledger;
  if (ledger.has_report) {
    // Fold the lease's final report into the committed totals: this is
    // what keeps the lifetime view monotonic across the handoff.
    ledger.committed_slots += ledger.live.slots;
    ledger.committed_dcis += ledger.live.dcis;
    ledger.committed_retx += ledger.live.retx_dcis;
    ledger.committed_restarts += ledger.live.restarts;
  }
  ledger.live = CellReport{};
  ledger.has_report = false;
  leases_.release(cell_index, penalize, now);
  replicate(cell_event(ReplicaEventKind::kLeaseRelease, cell_index));
}

void FleetCoordinator::try_assign(std::uint32_t cell_index,
                                  Clock::time_point now) {
  const auto worker_id = catalog_.pick_least_loaded(leases_);
  if (!worker_id) {
    return;  // fleet saturated or empty; retry next timer pass
  }
  const unsigned incarnation = leases_.cell(cell_index).handoffs;
  CellLedger& ledger = records_[cell_index].ledger;
  ledger.lease_base_slot = ledger.committed_slots;
  const std::uint64_t lease_id =
      leases_.grant(cell_index, *worker_id, now);
  m_leases_granted_->inc();
  replicate(cell_event(ReplicaEventKind::kLeaseGrant, cell_index));
  LeaseGrant grant;
  grant.lease_id = lease_id;
  grant.ttl_ms = config_.lease_ttl_ms;
  grant.base_slot = ledger.lease_base_slot;
  grant.epoch = epoch_;
  grant.spec = wire_spec(cell_index, incarnation);
  send_to_worker(*worker_id, frame(grant));
}

void FleetCoordinator::rebalance(Clock::time_point now) {
  const std::size_t alive = catalog_.alive_count();
  if (alive == 0) {
    return;
  }
  const std::size_t target =
      (leases_.n_cells() + alive - 1) / alive;  // ceil
  // Snapshot ids first: send_to_worker can declare a worker dead, which
  // erases it from the map we would otherwise be iterating.
  std::vector<std::uint64_t> ids;
  ids.reserve(catalog_.size());
  for (const auto& [id, entry] : catalog_.workers()) {
    if (entry.alive && entry.fd >= 0) {
      ids.push_back(id);  // ghosts are re-confirmation targets, not shed
    }
  }
  for (const std::uint64_t id : ids) {
    // Shed highest-index cells first (deterministic choice).  A worker
    // declared dead meanwhile holds nothing any more.
    const std::vector<std::uint32_t> held = leases_.held_by(id);
    for (std::size_t n = held.size(); n > target; --n) {
      const std::uint32_t cell = held[n - 1];
      const std::uint64_t lease_id = leases_.cell(cell).lease_id;
      m_revokes_->inc();
      end_lease(cell, /*penalize=*/false, now);
      LeaseRevoke revoke;
      revoke.lease_id = lease_id;
      revoke.cell_index = cell;
      revoke.reason = "rebalance";
      revoke.epoch = epoch_;
      if (!send_to_worker(id, frame(revoke))) {
        break;  // worker died mid-shed; its leases are already released
      }
    }
  }
}

bool FleetCoordinator::send_to_worker(
    std::uint64_t worker_id, const std::vector<std::uint8_t>& frame) {
  WorkerEntry* entry = catalog_.find(worker_id);
  if (entry == nullptr || !entry->alive || entry->fd < 0) {
    return false;
  }
  // A short write (kPartial) leaves a torn frame on the stream: the
  // connection is unusable for framed traffic, exactly like a hard
  // failure — never fall through and "succeed" with a truncated frame.
  if (send_exact(entry->fd, frame.data(), frame.size()) == SendResult::kOk) {
    return true;
  }
  declare_worker_dead(worker_id);
  return false;
}

WireCellSpec FleetCoordinator::wire_spec(std::uint32_t cell_index,
                                         unsigned incarnation) const {
  WireCellSpec spec = records_[cell_index].spec;
  spec.incarnation = incarnation;
  return spec;
}

// ---- Replication: primary side ---------------------------------------

bool FleetCoordinator::has_replica() const {
  for (const auto& conn : connections_) {
    if (conn->is_replica && conn->fd >= 0) {
      return true;
    }
  }
  return false;
}

ReplicaEvent FleetCoordinator::cell_event(ReplicaEventKind kind,
                                         std::uint32_t cell_index) const {
  const Lease& lease = leases_.cell(cell_index);
  ReplicaEvent event;
  event.kind = kind;
  event.cell_index = cell_index;
  event.lease_id = lease.lease_id;
  event.worker_id = lease.worker_id;
  event.lease_state = static_cast<std::uint8_t>(lease.state);
  event.handoffs = lease.handoffs;
  event.ledger = records_[cell_index].ledger;
  return event;
}

void FleetCoordinator::replicate(ReplicaEvent event) {
  if (has_replica()) {  // encode only when someone listens
    event.epoch = epoch_;
    m_replica_events_tx_->inc(send_to_replicas(frame(event)));
  }
}

std::size_t FleetCoordinator::send_to_replicas(
    const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  for (auto& conn : connections_) {
    if (conn->is_replica && conn->fd >= 0) {
      if (send_all(conn->fd, bytes.data(), bytes.size())) {
        ++sent;
      } else {
        close_connection(*conn);  // the standby redials and re-snapshots
      }
    }
  }
  return sent;
}

ReplicaSnapshot FleetCoordinator::build_snapshot() const {
  ReplicaSnapshot snapshot;
  snapshot.epoch = epoch_;
  snapshot.next_lease_id = leases_.next_lease_id();
  for (const auto& [id, entry] : catalog_.workers()) {
    if (!entry.alive) {
      continue;
    }
    ReplicaWorker worker;
    worker.worker_id = id;
    worker.name = entry.name;
    worker.capacity = entry.capacity;
    snapshot.workers.push_back(std::move(worker));
  }
  snapshot.cells.reserve(records_.size());
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    const Lease& lease = leases_.cell(i);
    ReplicaCell cell;
    cell.spec = wire_spec(i, lease.handoffs);
    cell.lease_state = static_cast<std::uint8_t>(lease.state);
    cell.lease_id = lease.lease_id;
    cell.worker_id = lease.worker_id;
    cell.handoffs = lease.handoffs;
    cell.ledger = records_[i].ledger;
    snapshot.cells.push_back(std::move(cell));
  }
  return snapshot;
}

void FleetCoordinator::fence_self() {
  if (deposed_) {
    return;
  }
  deposed_ = true;
  m_deposed_ctr_->inc();
}

// ---- Replication: standby side ---------------------------------------

void FleetCoordinator::maybe_connect_upstream() {
  if (role_ != CoordinatorRole::kStandby || upstream_ != nullptr ||
      stopping_.load() || !upstream_redial_->due(Clock::now())) {
    return;
  }
  const TcpEndpoint& primary = upstream_redial_->endpoint();
  const int fd = dial_tcp(primary.host, primary.port);
  StandbyHello hello;
  hello.name = "standby:" + std::to_string(port_);
  const std::vector<std::uint8_t> bytes = frame(hello);
  if (fd < 0 || !send_all(fd, bytes.data(), bytes.size())) {
    if (fd >= 0) {
      ::close(fd);
    }
    upstream_redial_->dial_failed(Clock::now());
    return;
  }
  upstream_redial_->dial_succeeded();
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->is_upstream = true;
  std::lock_guard lock(state_mutex_);
  upstream_ = conn.get();
  upstream_last_rx_ = Clock::now();
  connections_.push_back(std::move(conn));
}

void FleetCoordinator::handle_replication_frame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kReplicaSnapshot: {
      if (auto snapshot = decode<ReplicaSnapshot>(frame.payload)) {
        m_replica_snapshots_rx_->inc();
        apply_snapshot(*snapshot, Clock::now());
      } else {
        drop_upstream(/*healthy=*/false);
      }
      return;
    }
    case FrameType::kReplicaEvent: {
      if (auto event = decode<ReplicaEvent>(frame.payload)) {
        m_replica_events_rx_->inc();
        apply_event(*event, Clock::now());
      } else {
        drop_upstream(/*healthy=*/false);
      }
      return;
    }
    case FrameType::kHeartbeat:
      return;  // keepalive; upstream_last_rx_ already advanced
    case FrameType::kNotPrimary:
      // We dialed something that is not the acting primary (another
      // standby, or a deposed resurrection).  Drop and redial after a
      // backoff — it may promote, or we may be racing a failover.
      drop_upstream(/*healthy=*/false);
      return;
    default:
      return;
  }
}

void FleetCoordinator::apply_snapshot(const ReplicaSnapshot& snapshot,
                                      Clock::time_point now) {
  records_.clear();
  records_.reserve(snapshot.cells.size());
  leases_.reset(snapshot.cells.size());
  catalog_.clear();
  for (const ReplicaWorker& worker : snapshot.workers) {
    catalog_.restore(worker.worker_id, worker.name,
                     std::max<std::uint32_t>(1, worker.capacity), now);
  }
  for (std::uint32_t i = 0; i < snapshot.cells.size(); ++i) {
    const ReplicaCell& cell = snapshot.cells[i];
    records_.push_back(CellRecord{.spec = cell.spec, .ledger = cell.ledger});
    leases_.restore(i, to_lease_state(cell.lease_state), cell.lease_id,
                    cell.worker_id, cell.handoffs, now);
  }
  leases_.set_next_lease_id(snapshot.next_lease_id);
  if (snapshot.epoch > epoch_) {
    epoch_ = snapshot.epoch;
    m_epoch_gauge_->set(static_cast<std::int64_t>(epoch_));
  }
  synced_ = true;
}

void FleetCoordinator::apply_event(const ReplicaEvent& event,
                                   Clock::time_point now) {
  if (event.epoch > epoch_) {
    epoch_ = event.epoch;
    m_epoch_gauge_->set(static_cast<std::int64_t>(epoch_));
  }
  const bool catalog_event = event.kind == ReplicaEventKind::kWorkerJoin ||
                             event.kind == ReplicaEventKind::kWorkerLeave;
  if (!catalog_event && event.cell_index >= records_.size()) {
    return;
  }
  switch (event.kind) {
    case ReplicaEventKind::kWorkerJoin:
      catalog_.restore(event.worker_id, event.worker_name,
                       std::max<std::uint32_t>(1, event.capacity), now);
      break;
    case ReplicaEventKind::kWorkerLeave:
      catalog_.remove(event.worker_id);
      break;
    case ReplicaEventKind::kLeaseGrant:
    case ReplicaEventKind::kLeaseRenew:
    case ReplicaEventKind::kLeaseRelease:
    case ReplicaEventKind::kCellTotals:
      leases_.restore(event.cell_index, to_lease_state(event.lease_state),
                      event.lease_id, event.worker_id, event.handoffs, now);
      leases_.set_next_lease_id(event.lease_id);
      records_[event.cell_index].ledger = event.ledger;
      break;
    case ReplicaEventKind::kStoreRows:
      // Slots arrive already rebased.
      ingest_rows(event.cell_index, event.rows, 0, nullptr);
      break;
  }
}

void FleetCoordinator::drop_upstream(bool healthy) {
  if (upstream_ != nullptr) {
    close_connection(*upstream_);
  }
  if (healthy) {
    upstream_redial_->link_dropped();
  } else {
    upstream_redial_->dial_failed(Clock::now());
  }
}

void FleetCoordinator::standby_timers(Clock::time_point now) {
  if (upstream_ != nullptr &&
      now - upstream_last_rx_ > to_duration(kReplicationTimeoutS)) {
    // Silent link: the primary is wedged or gone.
    drop_upstream(/*healthy=*/true);
  }
  if (upstream_ == nullptr && synced_ &&
      now - upstream_last_rx_ >= to_duration(kPromoteAfterS)) {
    promote(now);
  }
}

void FleetCoordinator::promote(Clock::time_point now) {
  role_ = CoordinatorRole::kPrimary;
  // The epoch bump is the fence: every grant/renewal we issue now carries
  // a term the deposed primary has never seen.
  epoch_ += 1;
  deposed_ = false;
  ++promotions_;
  m_promotions_ctr_->inc();
  m_epoch_gauge_->set(static_cast<std::int64_t>(epoch_));
  // First act: extend, don't reassign.  Healthy workers kept their cells
  // running on the lease TTL; give every mirrored lease (and every ghost
  // catalog entry) a full fresh window to reconnect and re-confirm.
  leases_.extend_all(now);
  catalog_.touch_all(now);
  rebalance_hold_until_ =
      now + to_duration(config_.lease_ttl_ms / 1000.0);
  next_replica_heartbeat_ = now;
  if (upstream_ != nullptr) {
    close_connection(*upstream_);
  }
}

// ---- Snapshots -------------------------------------------------------

std::size_t FleetCoordinator::worker_count() const {
  std::lock_guard lock(state_mutex_);
  return catalog_.alive_count();
}

std::vector<DistWorkerStatus> FleetCoordinator::workers() const {
  std::lock_guard lock(state_mutex_);
  std::vector<DistWorkerStatus> out;
  out.reserve(catalog_.size());
  for (const auto& [id, entry] : catalog_.workers()) {
    DistWorkerStatus status;
    status.id = id;
    status.name = entry.name;
    status.capacity = entry.capacity;
    status.alive = entry.alive;
    status.cells = leases_.held_by(id);
    out.push_back(std::move(status));
  }
  return out;
}

std::vector<DistCellStatus> FleetCoordinator::cells() const {
  std::lock_guard lock(state_mutex_);
  std::vector<DistCellStatus> out;
  out.reserve(records_.size());
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    const Lease& lease = leases_.cell(i);
    const CellReport totals = lifetime_report(records_[i].ledger, lease);
    DistCellStatus status;
    status.cell_index = i;
    status.name = records_[i].spec.name;
    status.lease_state = lease.state;
    status.lease_id = lease.lease_id;
    status.worker_id = lease.worker_id;
    status.handoffs = lease.handoffs;
    status.slots = totals.slots;
    status.dcis = totals.dcis;
    status.cell_state = totals.cell_state;
    out.push_back(std::move(status));
  }
  return out;
}

FleetSummary FleetCoordinator::summary() const {
  std::lock_guard lock(state_mutex_);
  std::vector<CellReport> totals;
  std::vector<std::string> names;
  totals.reserve(records_.size());
  names.reserve(records_.size());
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    totals.push_back(lifetime_report(records_[i].ledger, leases_.cell(i)));
    names.push_back(records_[i].spec.name);
  }
  return fold_fleet_summary(totals, names);
}

std::uint64_t FleetCoordinator::reassignments() const {
  return m_reassignments_->value();
}

bool FleetCoordinator::all_cells_active() const {
  std::lock_guard lock(state_mutex_);
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    if (leases_.cell(i).state != LeaseState::kActive) {
      return false;
    }
    const CellLedger& ledger = records_[i].ledger;
    if (!ledger.has_report || ledger.live.cell_state != 0) {
      return false;
    }
  }
  return true;
}

CoordinatorRole FleetCoordinator::role() const {
  std::lock_guard lock(state_mutex_);
  return role_;
}

std::uint64_t FleetCoordinator::epoch() const {
  std::lock_guard lock(state_mutex_);
  return epoch_;
}

bool FleetCoordinator::synced() const {
  std::lock_guard lock(state_mutex_);
  return synced_;
}

bool FleetCoordinator::deposed() const {
  std::lock_guard lock(state_mutex_);
  return deposed_;
}

std::uint64_t FleetCoordinator::promotions() const {
  std::lock_guard lock(state_mutex_);
  return promotions_;
}

std::uint64_t FleetCoordinator::reconfirmations() const {
  std::lock_guard lock(state_mutex_);
  return reconfirmations_;
}

}  // namespace nrs
