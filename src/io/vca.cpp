#include "dassa/io/vca.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>

#include "dassa/common/counters.hpp"
#include "dassa/common/sync.hpp"
#include "dassa/common/timer.hpp"
#include "serialize.hpp"

namespace dassa::io {

namespace {
constexpr char kVcaMagic[8] = {'D', 'A', 'S', 'V', 'C', 'A', '\0', '\1'};
}  // namespace

/// Lazily opened member handles. Slots open on first touch under the
/// mutex; Dash5File handles are immobile (they pin a chunk-cache
/// identity), hence unique_ptr slots.
struct Vca::MemberFiles {
  Mutex mu;
  std::vector<std::unique_ptr<Dash5File>> files DASSA_GUARDED_BY(mu);
};

void check_member_shape(const Dash5File& file, const VcaMember& member) {
  if (file.shape() != member.shape) {
    throw FormatError(member.path + " is " + file.shape().str() +
                      " but the VCA recorded " + member.shape.str());
  }
}

Dash5File& Vca::member_file(std::size_t i) const {
  DASSA_CHECK(handles_ != nullptr, "member_file on an unbuilt VCA");
  MutexLock lock(handles_->mu);
  DASSA_CHECK(i < handles_->files.size(),
              "member_file index out of range");
  if (!handles_->files[i]) {
    // Checked once per open, before the handle is kept: later windows
    // over this member reuse a handle already known to fit.
    auto file = std::make_unique<Dash5File>(members_[i].path);
    check_member_shape(*file, members_[i]);
    handles_->files[i] = std::move(file);
  }
  return *handles_->files[i];
}

void Vca::finalize() {
  DASSA_CHECK(!members_.empty(), "VCA needs at least one member file");
  col_starts_.clear();
  col_starts_.reserve(members_.size() + 1);
  std::size_t col = 0;
  const std::size_t rows = members_.front().shape.rows;
  for (const auto& m : members_) {
    DASSA_CHECK(m.shape.rows == rows,
                "VCA members must have the same channel count (" + m.path +
                    " differs)");
    // A wrapped total would break col_starts_'s monotonicity, which
    // resolve()'s binary search and piece loop rely on.
    DASSA_CHECK(m.shape.cols <=
                    std::numeric_limits<std::size_t>::max() - col,
                "VCA total width overflows (" + m.path + ")");
    col_starts_.push_back(col);
    col += m.shape.cols;
  }
  col_starts_.push_back(col);
  shape_ = {rows, col};
  handles_ = std::make_shared<MemberFiles>();
  // Freshly built and not yet shared; the lock satisfies the
  // capability analysis and is uncontended.
  MutexLock lock(handles_->mu);
  handles_->files.resize(members_.size());
}

void Vca::append_member(const std::string& path) {
  DASSA_CHECK(!path.empty(), "append_member needs a member path");
  const Dash5Header h = Dash5File::read_header(path);
  if (members_.empty()) {
    members_.push_back({path, h.shape});
    global_ = h.global;
    finalize();
    return;
  }
  DASSA_CHECK(h.shape.rows == shape_.rows,
              "VCA members must have the same channel count (" + path +
                  " differs)");
  const std::size_t total = col_starts_.back();
  DASSA_CHECK(h.shape.cols <=
                  std::numeric_limits<std::size_t>::max() - total,
              "VCA total width overflows (" + path + ")");
  members_.push_back({path, h.shape});
  // col_starts_ is [s_0 .. s_{n-1}, total]: the old total becomes the
  // new member's start, and the new total goes on the end -- the
  // invariant finalize() establishes, maintained incrementally so the
  // append costs one header read, not n.
  col_starts_.push_back(total + h.shape.cols);
  shape_ = {shape_.rows, col_starts_.back()};
  MutexLock lock(handles_->mu);
  handles_->files.resize(members_.size());
}

void Vca::save_atomic(const std::string& path) const {
  DASSA_CHECK(!path.empty(), "save_atomic needs a destination path");
  const std::string tmp = path + ".tmp";
  save(tmp);
  // rename(2) is atomic within a filesystem: readers racing this see
  // the old or the new complete index, never a partial file.
  std::filesystem::rename(tmp, path);
}

Vca Vca::build(const std::vector<std::string>& files) {
  Vca vca;
  vca.members_.reserve(files.size());
  for (const auto& f : files) {
    const Dash5Header h = Dash5File::read_header(f);
    vca.members_.push_back({f, h.shape});
    if (vca.members_.size() == 1) vca.global_ = h.global;
  }
  vca.finalize();
  return vca;
}

void Vca::save(const std::string& path) const {
  detail::Encoder enc;
  enc.u32(static_cast<std::uint32_t>(global_.size()));
  for (const auto& [k, v] : global_.items()) {
    enc.str(k);
    enc.str(v);
  }
  enc.u64(members_.size());
  for (const auto& m : members_) {
    enc.str(m.path);
    enc.u64(m.shape.rows);
    enc.u64(m.shape.cols);
  }
  const std::vector<std::byte>& body = enc.bytes();
  const std::uint32_t crc = detail::crc32(body.data(), body.size());

  OutputFile out(path);
  out.write(kVcaMagic, sizeof kVcaMagic);
  const std::uint64_t size = body.size();
  out.write(&size, sizeof size);
  out.write(body.data(), body.size());
  out.write(&crc, sizeof crc);
  out.close();
}

Vca Vca::load(const std::string& path) {
  InputFile in(path);
  char magic[8];
  in.read_at(0, magic, sizeof magic);
  if (std::memcmp(magic, kVcaMagic, sizeof magic) != 0) {
    throw FormatError("bad VCA magic in " + path);
  }
  std::uint64_t size = 0;
  in.read_at(8, &size, sizeof size);
  // Subtraction form: `16 + size + 4` wraps for a corrupted size near
  // 2^64 and would slip past the check into a huge allocation.
  if (in.size() < 20 || size > in.size() - 20) {
    throw FormatError("truncated VCA " + path);
  }
  const std::vector<std::byte> body =
      in.read_vec(16, static_cast<std::size_t>(size));
  std::uint32_t stored_crc = 0;
  in.read_at(16 + size, &stored_crc, sizeof stored_crc);
  if (detail::crc32(body.data(), body.size()) != stored_crc) {
    throw FormatError("VCA CRC mismatch in " + path);
  }

  detail::Decoder dec(body);
  Vca vca;
  const std::uint32_t nkv = dec.u32();
  for (std::uint32_t i = 0; i < nkv; ++i) {
    std::string k = dec.str();
    std::string v = dec.str();
    vca.global_.set(std::move(k), std::move(v));
  }
  const std::uint64_t nmem = dec.u64();
  // Each member needs >= 20 encoded bytes (path length + two extents),
  // so a count beyond body/20 cannot be satisfied -- reject it before
  // the reserve turns a corrupted count into a std::bad_alloc.
  if (nmem > body.size() / 20) {
    throw FormatError("implausible member count in " + path);
  }
  vca.members_.reserve(nmem);
  for (std::uint64_t i = 0; i < nmem; ++i) {
    VcaMember m;
    m.path = dec.str();
    m.shape.rows = dec.u64();
    m.shape.cols = dec.u64();
    vca.members_.push_back(std::move(m));
  }
  // Validate structural invariants here with FormatError (this is a
  // parser); finalize()'s DASSA_CHECKs guard the programmatic builder.
  if (vca.members_.empty()) {
    throw FormatError("VCA without members in " + path);
  }
  for (const auto& m : vca.members_) {
    if (m.shape.rows != vca.members_.front().shape.rows) {
      throw FormatError("VCA member channel counts differ in " + path);
    }
  }
  vca.finalize();
  return vca;
}

std::vector<VcaPiece> Vca::resolve(const Slab2D& slab) const {
  slab.validate_against(shape_);
  std::vector<VcaPiece> pieces;
  if (slab.empty()) return pieces;
  const std::size_t first_col = slab.col_off;
  const std::size_t last_col = slab.col_off + slab.col_cnt;  // exclusive

  // Binary search for the member containing the first column.
  const auto it = std::upper_bound(col_starts_.begin(), col_starts_.end() - 1,
                                   first_col);
  std::size_t m = static_cast<std::size_t>(it - col_starts_.begin()) - 1;

  std::size_t col = first_col;
  while (col < last_col) {
    const std::size_t member_begin = col_starts_[m];
    const std::size_t member_end = col_starts_[m + 1];
    const std::size_t local_off = col - member_begin;
    const std::size_t take = std::min(last_col, member_end) - col;
    pieces.push_back(VcaPiece{
        m,
        Slab2D{slab.row_off, local_off, slab.row_cnt, take},
        col - first_col});
    col += take;
    ++m;
  }
  return pieces;
}

void Vca::read_slab_into(const Slab2D& slab, double* dst,
                         std::size_t dst_stride) const {
  DASSA_CHECK(dst_stride >= slab.col_cnt,
              "destination stride narrower than the selection");
  // Reading the whole VCA scans each member once. A window reads through
  // the chunk cache even where it covers a member whole: the member
  // handles live as long as the VCA, and the next window reuses tiles.
  const bool whole = slab == Slab2D::whole(shape());
  for (const auto& piece : resolve(slab)) {
    const Dash5File& file = member_file(piece.member);
    if (whole) {
      file.read_slab_into(piece.slab, dst + piece.col_dst, dst_stride);
    } else {
      file.read_window_into(piece.slab, dst + piece.col_dst, dst_stride);
    }
  }
}

RcaBuildStats rca_create(const std::vector<std::string>& files,
                         const std::string& out_path) {
  DASSA_CHECK(!files.empty(), "RCA needs at least one member file");
  WallTimer timer;
  const std::uint64_t read0 =
      global_counters().get(counters::kIoReadBytes);
  const std::uint64_t write0 =
      global_counters().get(counters::kIoWriteBytes);

  // First pass over headers to size the output.
  Vca vca = Vca::build(files);
  const Shape2D total = vca.shape();

  // Read every member in full, straight into its column band. This is
  // the "accesses the whole data" cost the paper attributes to RCA.
  const std::vector<double> merged = vca.read_all();

  // Keep the members' storage dtype so the merged file costs the same
  // bytes per sample as its sources (Table I: RCA extra space = 100%).
  Dash5Header header = Dash5File::read_header(files.front());
  header.shape = total;
  dash5_write(out_path, header, merged);

  RcaBuildStats stats;
  stats.seconds = timer.seconds();
  stats.bytes_read = global_counters().get(counters::kIoReadBytes) - read0;
  stats.bytes_written =
      global_counters().get(counters::kIoWriteBytes) - write0;
  return stats;
}

RcaBuildStats rca_create_streaming(const std::vector<std::string>& files,
                                   const std::string& out_path,
                                   std::size_t rows_per_block) {
  DASSA_CHECK(!files.empty(), "RCA needs at least one member file");
  DASSA_CHECK(rows_per_block >= 1, "row block must hold at least one row");
  WallTimer timer;
  const std::uint64_t read0 = global_counters().get(counters::kIoReadBytes);
  const std::uint64_t write0 =
      global_counters().get(counters::kIoWriteBytes);

  Vca vca = Vca::build(files);
  const Shape2D total = vca.shape();

  Dash5Header header = Dash5File::read_header(files.front());
  header.shape = total;
  Dash5StreamWriter writer(out_path, header);

  // The VCA keeps its member files open across blocks (one open per
  // member, not one per block per member).
  std::vector<double> block;
  for (std::size_t row0 = 0; row0 < total.rows; row0 += rows_per_block) {
    const std::size_t rows = std::min(rows_per_block, total.rows - row0);
    block.resize(rows * total.cols);
    vca.read_slab_into(Slab2D{row0, 0, rows, total.cols}, block.data(),
                       total.cols);
    writer.append(block);
  }
  writer.close();

  RcaBuildStats stats;
  stats.seconds = timer.seconds();
  stats.bytes_read = global_counters().get(counters::kIoReadBytes) - read0;
  stats.bytes_written =
      global_counters().get(counters::kIoWriteBytes) - write0;
  return stats;
}

}  // namespace dassa::io
