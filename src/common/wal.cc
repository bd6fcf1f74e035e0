#include "common/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/hash.h"

namespace mbp::wal {
namespace {

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::string SegmentName(uint64_t seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%020" PRIu64 ".seg", seq);
  return buf;
}

std::string CheckpointName(uint64_t seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "ckpt-%020" PRIu64 ".ckpt", seq);
  return buf;
}

// Parses "<prefix><20-digit seq><suffix>"; false for anything else.
bool ParseSeq(std::string_view name, std::string_view prefix,
              std::string_view suffix, uint64_t* seq) {
  if (name.size() != prefix.size() + 20 + suffix.size()) return false;
  if (name.substr(0, prefix.size()) != prefix) return false;
  if (name.substr(prefix.size() + 20) != suffix) return false;
  uint64_t value = 0;
  for (size_t i = 0; i < 20; ++i) {
    const char c = name[prefix.size() + i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

Status ErrnoError(const char* what, const std::string& path) {
  return InternalError(std::string(what) + " " + path + ": " +
                       std::strerror(errno));
}

// Reads the whole file into *out (replacing it). Not for huge files —
// segments are bounded by segment_bytes.
Status ReadFile(const std::string& path, std::string* out) {
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("open", path);
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      close(fd);
      return ErrnoError("read", path);
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return Status::OK();
}

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write", path);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FsyncDir(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("open dir", dir);
  const int rc = fsync(fd);
  close(fd);
  if (rc != 0) return ErrnoError("fsync dir", dir);
  return Status::OK();
}

// Validates one frame at data[offset..]; returns the payload view and
// advances *offset past the frame, or false on a torn/corrupt frame.
// max_len is the implausible-length bound: kMaxWalRecordBytes for
// segment frames, kMaxWalCheckpointBytes for the checkpoint's one frame.
bool NextValidRecord(const std::string& data, size_t* offset,
                     std::string_view* payload,
                     size_t max_len = kMaxWalRecordBytes) {
  const size_t remaining = data.size() - *offset;
  if (remaining < kWalHeaderBytes) return false;
  const uint8_t* p =
      reinterpret_cast<const uint8_t*>(data.data()) + *offset;
  const uint32_t len = LoadU32(p);
  if (len == 0 || len > max_len) return false;
  if (remaining < kWalHeaderBytes + len) return false;
  const uint32_t checksum = LoadU32(p + 4);
  if (checksum != Fnv1a32(p + kWalHeaderBytes, len)) return false;
  *payload = std::string_view(data.data() + *offset + kWalHeaderBytes, len);
  *offset += kWalHeaderBytes + len;
  return true;
}

}  // namespace

bool ParseFsyncPolicy(std::string_view name, FsyncPolicy* out) {
  if (name == "none") {
    *out = FsyncPolicy::kNone;
  } else if (name == "batch") {
    *out = FsyncPolicy::kBatch;
  } else if (name == "every") {
    *out = FsyncPolicy::kEveryRecord;
  } else {
    return false;
  }
  return true;
}

std::string_view FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone:
      return "none";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kEveryRecord:
      return "every";
  }
  return "?";
}

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {}

Wal::~Wal() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (sync_in_flight_) synced_cv_.wait(lock);
  if (fd_ >= 0) {
    if (options_.fsync_policy != FsyncPolicy::kNone &&
        synced_lsn_ < last_lsn_) {
      fdatasync(fd_);
    }
    close(fd_);
    fd_ = -1;
  }
}

StatusOr<std::unique_ptr<Wal>> Wal::Open(
    const std::string& dir, const WalOptions& options,
    const std::function<void(std::string_view)>& replay,
    WalRecovery* recovery) {
  const auto start = std::chrono::steady_clock::now();
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoError("mkdir", dir);
  }

  // Inventory the directory: segment and checkpoint sequence numbers.
  std::vector<uint64_t> segments;
  std::vector<uint64_t> checkpoints;
  {
    DIR* d = opendir(dir.c_str());
    if (d == nullptr) return ErrnoError("opendir", dir);
    while (struct dirent* entry = readdir(d)) {
      uint64_t seq = 0;
      if (ParseSeq(entry->d_name, "wal-", ".seg", &seq)) {
        segments.push_back(seq);
      } else if (ParseSeq(entry->d_name, "ckpt-", ".ckpt", &seq)) {
        checkpoints.push_back(seq);
      }
      // Anything else (stray ".tmp" from a crashed checkpoint, foreign
      // files) is ignored; compaction cleans tmp files up.
    }
    closedir(d);
  }
  std::sort(segments.begin(), segments.end());
  std::sort(checkpoints.begin(), checkpoints.end());

  std::unique_ptr<Wal> log(new Wal(dir, options));
  WalRecovery& rec = log->recovery_;

  // Newest checkpoint whose single record validates wins; a corrupt one
  // (bit rot — the rename makes partial checkpoints invisible) falls
  // back to the next older, counting the damage.
  uint64_t start_seq = 0;
  for (size_t i = checkpoints.size(); i-- > 0;) {
    std::string data;
    const Status read =
        ReadFile(dir + "/" + CheckpointName(checkpoints[i]), &data);
    if (read.ok()) {
      size_t offset = 0;
      std::string_view payload;
      if (NextValidRecord(data, &offset, &payload,
                          kMaxWalCheckpointBytes) &&
          offset == data.size()) {
        rec.checkpoint = std::string(payload);
        rec.has_checkpoint = true;
        start_seq = checkpoints[i];
        break;
      }
    }
    ++rec.torn_tail;
  }

  // Replay surviving segments in order: longest valid prefix, truncate
  // at the first damaged record, drop everything after it.
  bool damaged = false;
  uint64_t last_seq_seen = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    const uint64_t seq = segments[i];
    if (seq < start_seq) continue;  // subsumed by the checkpoint
    const std::string path = dir + "/" + SegmentName(seq);
    if (damaged) {
      // A valid suffix past damage is NOT a valid prefix of the log;
      // deleting it keeps "recovered == longest valid prefix" exact.
      rec.truncated_bytes += [&] {
        struct stat st;
        return stat(path.c_str(), &st) == 0
                   ? static_cast<uint64_t>(st.st_size)
                   : 0;
      }();
      unlink(path.c_str());
      continue;
    }
    std::string data;
    MBP_RETURN_IF_ERROR(ReadFile(path, &data));
    size_t offset = 0;
    std::string_view payload;
    while (offset < data.size() &&
           NextValidRecord(data, &offset, &payload)) {
      if (replay) replay(payload);
      ++rec.records_replayed;
    }
    if (offset < data.size()) {
      // Torn tail (mid-write crash) or bit rot: truncate at the last
      // valid record so appends resume from a clean boundary.
      damaged = true;
      ++rec.torn_tail;
      rec.truncated_bytes += data.size() - offset;
      const int fd = open(path.c_str(), O_WRONLY | O_CLOEXEC);
      if (fd < 0) return ErrnoError("open", path);
      if (ftruncate(fd, static_cast<off_t>(offset)) != 0) {
        close(fd);
        return ErrnoError("ftruncate", path);
      }
      fsync(fd);
      close(fd);
    }
    last_seq_seen = seq;
  }

  // Position the append head: continue the last surviving segment while
  // it has room, otherwise start the next one.
  {
    std::unique_lock<std::mutex> lock(log->mutex_);
    const uint64_t append_seq =
        last_seq_seen != 0 ? last_seq_seen : std::max<uint64_t>(start_seq, 1);
    MBP_RETURN_IF_ERROR(log->OpenSegmentLocked(append_seq));
    if (log->segment_size_ >= options.segment_bytes) {
      MBP_RETURN_IF_ERROR(log->RotateLocked(&lock));
    }
  }

  rec.recovery_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (recovery != nullptr) *recovery = rec;
  return log;
}

Status Wal::OpenSegmentLocked(uint64_t seq) {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  const std::string path = dir_ + "/" + SegmentName(seq);
  const int fd =
      open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("open", path);
  struct stat st;
  if (fstat(fd, &st) != 0) {
    close(fd);
    return ErrnoError("fstat", path);
  }
  fd_ = fd;
  segment_seq_ = seq;
  segment_size_ = static_cast<size_t>(st.st_size);
  return Status::OK();
}

Status Wal::RotateLocked(std::unique_lock<std::mutex>* lock) {
  // Never close a segment a group-commit leader is fdatasync'ing.
  while (sync_in_flight_) synced_cv_.wait(*lock);
  if (fd_ >= 0 && options_.fsync_policy != FsyncPolicy::kNone) {
    // Seal: a rotated-away segment is fully durable, so the group-commit
    // fast path only ever has to sync the CURRENT segment.
    if (fdatasync(fd_) != 0) {
      sync_error_ = ErrnoError("fdatasync", dir_);
      synced_cv_.notify_all();
      return sync_error_;
    }
    fsyncs_.Increment();
    synced_lsn_ = last_lsn_;
  }
  MBP_RETURN_IF_ERROR(OpenSegmentLocked(segment_seq_ + 1));
  if (options_.fsync_policy != FsyncPolicy::kNone) {
    // The new segment's directory entry must survive power loss too.
    MBP_RETURN_IF_ERROR(FsyncDir(dir_));
  }
  return Status::OK();
}

Status Wal::FdatasyncLocked() {
  if (fdatasync(fd_) != 0) {
    sync_error_ = ErrnoError("fdatasync", dir_);
    synced_cv_.notify_all();
    return sync_error_;
  }
  fsyncs_.Increment();
  synced_lsn_ = last_lsn_;
  return Status::OK();
}

Status Wal::WaitDurableLocked(std::unique_lock<std::mutex>* lock,
                              uint64_t lsn) {
  while (synced_lsn_ < lsn) {
    if (!sync_error_.ok()) return sync_error_;
    if (!sync_in_flight_) {
      // Become the sync leader: everything appended up to now rides this
      // one fdatasync (group commit).
      sync_in_flight_ = true;
      const uint64_t target = last_lsn_;
      const int fd = fd_;
      lock->unlock();
      const int rc = fdatasync(fd);
      lock->lock();
      sync_in_flight_ = false;
      if (rc != 0) {
        sync_error_ = ErrnoError("fdatasync", dir_);
        synced_cv_.notify_all();
        return sync_error_;
      }
      fsyncs_.Increment();
      if (target > synced_lsn_) synced_lsn_ = target;
      synced_cv_.notify_all();
    } else {
      synced_cv_.wait(*lock);
    }
  }
  return Status::OK();
}

Status Wal::Append(std::string_view payload) {
  if (payload.empty() || payload.size() > kMaxWalRecordBytes) {
    return InvalidArgumentError("WAL record payload must be 1..1MiB bytes");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (!sync_error_.ok()) return sync_error_;
  const size_t frame_size = kWalHeaderBytes + payload.size();
  if (segment_size_ > 0 &&
      segment_size_ + frame_size > options_.segment_bytes) {
    MBP_RETURN_IF_ERROR(RotateLocked(&lock));
  }
  scratch_.resize(frame_size);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t checksum = Fnv1a32(payload.data(), payload.size());
  std::memcpy(scratch_.data(), &len, 4);
  std::memcpy(scratch_.data() + 4, &checksum, 4);
  std::memcpy(scratch_.data() + kWalHeaderBytes, payload.data(),
              payload.size());

#if defined(MBP_FAULT_INJECTION_ENABLED)
  if (MBP_FAULT_POINT("wal.append.torn")) {
    // The mid-write crash: leave a deliberately torn record on disk —
    // at least the length prefix, never the full frame — then die the
    // way kill -9 does. Recovery must truncate exactly this tail.
    const size_t partial = std::max<size_t>(1, frame_size / 2);
    (void)!write(fd_, scratch_.data(), partial);
    _exit(137);
  }
#endif

  const std::string path = dir_ + "/" + SegmentName(segment_seq_);
  const Status written = WriteAll(fd_, scratch_.data(), frame_size, path);
  if (!written.ok()) {
    sync_error_ = written;  // offset unknown: poison the log
    synced_cv_.notify_all();
    return written;
  }
  segment_size_ += frame_size;
  const uint64_t lsn = ++last_lsn_;
  appends_.Increment();
  bytes_.Increment(frame_size);

  MBP_FAULT_CRASH("wal.crash.pre_fsync");

  switch (options_.fsync_policy) {
    case FsyncPolicy::kNone:
      break;
    case FsyncPolicy::kEveryRecord:
      MBP_RETURN_IF_ERROR(FdatasyncLocked());
      break;
    case FsyncPolicy::kBatch:
      MBP_RETURN_IF_ERROR(WaitDurableLocked(&lock, lsn));
      break;
  }

  MBP_FAULT_CRASH("wal.crash.post_fsync");
  return Status::OK();
}

Status Wal::Sync() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!sync_error_.ok()) return sync_error_;
  if (synced_lsn_ >= last_lsn_) return Status::OK();
  return WaitDurableLocked(&lock, last_lsn_);
}

Status Wal::Checkpoint(std::string_view state) {
  if (state.empty() || state.size() > kMaxWalCheckpointBytes) {
    return InvalidArgumentError("WAL checkpoint state must be 1..1GiB bytes");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (!sync_error_.ok()) return sync_error_;
  // Seal the current segment (unless it is empty) so the checkpoint's
  // sequence number subsumes every record appended so far.
  if (segment_size_ > 0) {
    MBP_RETURN_IF_ERROR(RotateLocked(&lock));
  } else {
    while (sync_in_flight_) synced_cv_.wait(lock);
    if (options_.fsync_policy != FsyncPolicy::kNone &&
        synced_lsn_ < last_lsn_) {
      MBP_RETURN_IF_ERROR(FdatasyncLocked());
    }
  }
  const uint64_t ckpt_seq = segment_seq_;

  // tmp + fsync + rename + dir fsync: a crash at any point leaves either
  // the old checkpoint (tmp never renamed) or the new one — never a
  // half-written visible checkpoint.
  const std::string final_path = dir_ + "/" + CheckpointName(ckpt_seq);
  const std::string tmp_path = final_path + ".tmp";
  {
    const int fd = open(tmp_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) return ErrnoError("open", tmp_path);
    const uint32_t len = static_cast<uint32_t>(state.size());
    const uint32_t checksum = Fnv1a32(state.data(), state.size());
    char header[kWalHeaderBytes];
    std::memcpy(header, &len, 4);
    std::memcpy(header + 4, &checksum, 4);
    Status written = WriteAll(fd, header, sizeof(header), tmp_path);
    if (written.ok()) {
      written = WriteAll(fd, state.data(), state.size(), tmp_path);
    }
    if (written.ok() && fsync(fd) != 0) {
      written = ErrnoError("fsync", tmp_path);
    }
    close(fd);
    if (!written.ok()) {
      unlink(tmp_path.c_str());
      return written;
    }
  }

  MBP_FAULT_CRASH("wal.checkpoint.pre_rename");

  if (rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const Status failed = ErrnoError("rename", final_path);
    unlink(tmp_path.c_str());
    return failed;
  }
  MBP_RETURN_IF_ERROR(FsyncDir(dir_));
  checkpoints_.Increment();

  // Compaction: everything the checkpoint subsumes goes away.
  {
    DIR* d = opendir(dir_.c_str());
    if (d != nullptr) {
      std::vector<std::string> doomed;
      while (struct dirent* entry = readdir(d)) {
        uint64_t seq = 0;
        const std::string_view name(entry->d_name);
        if ((ParseSeq(name, "wal-", ".seg", &seq) && seq < ckpt_seq) ||
            (ParseSeq(name, "ckpt-", ".ckpt", &seq) && seq < ckpt_seq) ||
            (name.size() > 4 &&
             name.substr(name.size() - 4) == ".tmp" &&
             name != CheckpointName(ckpt_seq) + ".tmp")) {
          doomed.emplace_back(name);
        }
      }
      closedir(d);
      for (const std::string& name : doomed) {
        unlink((dir_ + "/" + name).c_str());
      }
    }
  }
  return Status::OK();
}

}  // namespace mbp::wal
