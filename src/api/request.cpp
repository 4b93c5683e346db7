#include "api/request.h"

#include "support/bitops.h"
#include "workloads/generated.h"
#include "workloads/workload.h"

namespace spmwcet::api {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::ParseError: return "parse_error";
    case ErrorCode::VersionMismatch: return "version_mismatch";
    case ErrorCode::InvalidArgument: return "invalid_argument";
    case ErrorCode::UnknownWorkload: return "unknown_workload";
    case ErrorCode::OutOfRange: return "out_of_range";
    case ErrorCode::ExecutionError: return "execution_error";
    case ErrorCode::DeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::Internal: return "internal";
  }
  return "internal";
}

const char* setup_name(MemSetup setup) {
  return setup == MemSetup::Scratchpad ? "spm" : "cache";
}

namespace {

const std::vector<uint32_t>& paper_sizes() {
  static const std::vector<uint32_t> sizes = harness::SweepConfig{}.sizes;
  return sizes;
}

std::optional<ApiError> check_workload(const std::string& name) {
  if (name.empty())
    return ApiError{ErrorCode::InvalidArgument, "workload name is empty",
                    "workload"};
  if (workloads::is_gen_name(name)) {
    // The gen: namespace gets precise typed rejections per failure class,
    // not a blanket "unknown workload" — a malformed name, an unknown
    // shape and an overflowing seed are different client bugs.
    const workloads::GenParseResult gen = workloads::parse_gen_name(name);
    switch (gen.status) {
      case workloads::GenParseStatus::Ok:
        return std::nullopt;
      case workloads::GenParseStatus::UnknownShape:
        return ApiError{ErrorCode::UnknownWorkload, gen.message, "workload"};
      case workloads::GenParseStatus::SeedOutOfRange:
        return ApiError{ErrorCode::OutOfRange, gen.message, "workload"};
      default:
        return ApiError{ErrorCode::InvalidArgument, gen.message, "workload"};
    }
  }
  if (!workloads::is_known_benchmark(name))
    return ApiError{ErrorCode::UnknownWorkload,
                    "unknown workload '" + name + "'", "workload"};
  return std::nullopt;
}

std::optional<ApiError> check_size(MemSetup setup, uint32_t size,
                                   const ExperimentOptions& opts) {
  if (size == 0 || size > kMaxMemBytes)
    return ApiError{ErrorCode::OutOfRange,
                    "size " + std::to_string(size) +
                        " outside the supported range [1, " +
                        std::to_string(kMaxMemBytes) + "] bytes",
                    "size"};
  if (setup == MemSetup::Cache) {
    // The cache model's geometry invariants, enforced here so a bad wire
    // request cannot reach CacheConfig::validate's internal-check throw.
    if (!is_pow2(size))
      return ApiError{ErrorCode::OutOfRange,
                      "cache size " + std::to_string(size) +
                          " must be a power of two",
                      "size"};
    if (static_cast<uint64_t>(opts.cache_assoc) * 16 > size)
      return ApiError{ErrorCode::OutOfRange,
                      "cache size " + std::to_string(size) +
                          " cannot hold associativity " +
                          std::to_string(opts.cache_assoc) +
                          " with 16-byte lines",
                      "size"};
  }
  return std::nullopt;
}

std::optional<ApiError> check_options(MemSetup setup,
                                      const ExperimentOptions& opts) {
  if (setup == MemSetup::Cache &&
      (opts.cache_assoc == 0 || !is_pow2(opts.cache_assoc)))
    return ApiError{ErrorCode::InvalidArgument,
                    "cache associativity " + std::to_string(opts.cache_assoc) +
                        " must be a nonzero power of two",
                    "assoc"};
  if (setup == MemSetup::Cache && opts.cache_assoc > kMaxCacheAssoc)
    return ApiError{ErrorCode::OutOfRange,
                    "cache associativity " + std::to_string(opts.cache_assoc) +
                        " exceeds the supported maximum of " +
                        std::to_string(kMaxCacheAssoc),
                    "assoc"};
  return std::nullopt;
}

std::optional<ApiError> check_sizes(MemSetup setup,
                                    const std::vector<uint32_t>& sizes,
                                    const ExperimentOptions& opts) {
  if (sizes.empty())
    return ApiError{ErrorCode::InvalidArgument, "size list is empty", "sizes"};
  if (sizes.size() > kMaxSizesPerRequest)
    return ApiError{ErrorCode::OutOfRange,
                    "size list has " + std::to_string(sizes.size()) +
                        " entries (limit " +
                        std::to_string(kMaxSizesPerRequest) + ")",
                    "sizes"};
  for (const uint32_t size : sizes)
    if (auto err = check_size(setup, size, opts)) return err;
  return std::nullopt;
}

std::optional<ApiError> check_deadline(uint32_t deadline_ms) {
  if (deadline_ms > kMaxDeadlineMs)
    return ApiError{ErrorCode::OutOfRange,
                    "deadline_ms " + std::to_string(deadline_ms) +
                        " exceeds the maximum of " +
                        std::to_string(kMaxDeadlineMs) + " ms",
                    "deadline_ms"};
  return std::nullopt;
}

std::optional<ApiError>
check_workloads(const std::vector<std::string>& names) {
  if (names.empty())
    return ApiError{ErrorCode::InvalidArgument, "workload list is empty",
                    "workloads"};
  for (const std::string& name : names)
    if (auto err = check_workload(name)) return err;
  return std::nullopt;
}

void key_options(std::string& key, const ExperimentOptions& o) {
  key += "|assoc=" + std::to_string(o.cache_assoc);
  key += o.cache_unified ? "|unified" : "|icache";
  if (o.with_persistence) key += "|pers";
  if (o.wcet_driven_alloc) key += "|wcetalloc";
}

void key_sizes(std::string& key, const std::vector<uint32_t>& sizes) {
  key += "|sizes=";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i != 0) key += ',';
    key += std::to_string(sizes[i]);
  }
}

void key_names(std::string& key, const std::vector<std::string>& names) {
  key += "|wl=";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) key += ',';
    key += names[i];
  }
}

std::optional<ApiError> check_repeat(uint32_t repeat) {
  if (repeat == 0 || repeat > kMaxRepeat)
    return ApiError{ErrorCode::OutOfRange,
                    "repeat " + std::to_string(repeat) +
                        " outside the supported range [1, " +
                        std::to_string(kMaxRepeat) + "]",
                    "repeat"};
  return std::nullopt;
}

} // namespace

Result<PointRequest> PointRequest::make(std::string workload, MemSetup setup,
                                        uint32_t size_bytes,
                                        ExperimentOptions options,
                                        uint32_t deadline_ms) {
  if (auto err = check_workload(workload)) return *err;
  if (auto err = check_options(setup, options)) return *err;
  if (auto err = check_size(setup, size_bytes, options)) return *err;
  if (auto err = check_deadline(deadline_ms)) return *err;
  PointRequest req;
  req.workload_ = std::move(workload);
  req.setup_ = setup;
  req.size_ = size_bytes;
  req.options_ = options;
  req.deadline_ms_ = deadline_ms;
  return req;
}

std::string PointRequest::key() const {
  std::string key = "point|" + workload_ + "|" + setup_name(setup_) + "|" +
                    std::to_string(size_);
  key_options(key, options_);
  return key;
}

Result<SweepRequest> SweepRequest::make(std::vector<std::string> workloads,
                                        MemSetup setup,
                                        std::vector<uint32_t> sizes,
                                        ExperimentOptions options,
                                        uint32_t deadline_ms) {
  if (sizes.empty()) sizes = paper_sizes();
  if (auto err = check_workloads(workloads)) return *err;
  if (auto err = check_options(setup, options)) return *err;
  if (auto err = check_sizes(setup, sizes, options)) return *err;
  if (auto err = check_deadline(deadline_ms)) return *err;
  SweepRequest req;
  req.workloads_ = std::move(workloads);
  req.setup_ = setup;
  req.sizes_ = std::move(sizes);
  req.options_ = options;
  req.deadline_ms_ = deadline_ms;
  return req;
}

std::string SweepRequest::key() const {
  std::string key = std::string("sweep|") + setup_name(setup_);
  key_names(key, workloads_);
  key_sizes(key, sizes_);
  key_options(key, options_);
  return key;
}

Result<EvalRequest> EvalRequest::make(std::vector<std::string> workloads,
                                      std::vector<uint32_t> sizes,
                                      ExperimentOptions options,
                                      uint32_t deadline_ms) {
  if (workloads.empty()) workloads = workloads::paper_benchmark_names();
  if (sizes.empty()) sizes = paper_sizes();
  if (auto err = check_workloads(workloads)) return *err;
  // An evaluation runs both setups, so both validity regimes apply; the
  // cache rules are the stricter superset.
  if (auto err = check_options(MemSetup::Cache, options)) return *err;
  if (auto err = check_sizes(MemSetup::Cache, sizes, options)) return *err;
  if (auto err = check_deadline(deadline_ms)) return *err;
  EvalRequest req;
  req.workloads_ = std::move(workloads);
  req.sizes_ = std::move(sizes);
  req.options_ = options;
  req.deadline_ms_ = deadline_ms;
  return req;
}

std::string EvalRequest::key() const {
  std::string key = "eval";
  key_names(key, workloads_);
  key_sizes(key, sizes_);
  key_options(key, options_);
  return key;
}

Result<CorpusRequest> CorpusRequest::make(std::string shape,
                                          uint32_t base_seed, uint32_t count,
                                          MemSetup setup,
                                          std::vector<uint32_t> sizes,
                                          ExperimentOptions options,
                                          uint32_t deadline_ms) {
  bool known_shape = false;
  for (const std::string& s : workloads::gen_shape_names())
    known_shape = known_shape || s == shape;
  if (!known_shape) {
    std::string known;
    for (const auto& s : workloads::gen_shape_names())
      known += (known.empty() ? "" : ", ") + s;
    return ApiError{ErrorCode::UnknownWorkload,
                    "unknown generated-workload shape '" + shape +
                        "' (known shapes: " + known + ")",
                    "shape"};
  }
  if (count == 0 || count > kMaxCorpusCount)
    return ApiError{ErrorCode::OutOfRange,
                    "corpus count " + std::to_string(count) +
                        " outside the supported range [1, " +
                        std::to_string(kMaxCorpusCount) + "]",
                    "count"};
  if (static_cast<uint64_t>(base_seed) + count - 1 > 0xffffffffull)
    return ApiError{ErrorCode::OutOfRange,
                    "seed range [" + std::to_string(base_seed) + ", " +
                        std::to_string(static_cast<uint64_t>(base_seed) +
                                       count - 1) +
                        "] exceeds the uint32 seed space",
                    "base"};
  if (sizes.empty()) sizes = paper_sizes();
  if (auto err = check_options(setup, options)) return *err;
  if (auto err = check_sizes(setup, sizes, options)) return *err;
  if (auto err = check_deadline(deadline_ms)) return *err;
  CorpusRequest req;
  req.shape_ = std::move(shape);
  req.base_seed_ = base_seed;
  req.count_ = count;
  req.setup_ = setup;
  req.sizes_ = std::move(sizes);
  req.options_ = options;
  req.deadline_ms_ = deadline_ms;
  return req;
}

std::vector<std::string> CorpusRequest::workload_names() const {
  std::vector<std::string> names;
  names.reserve(count_);
  for (uint32_t i = 0; i < count_; ++i)
    names.push_back("gen:" + shape_ + ":" + std::to_string(base_seed_ + i));
  return names;
}

std::string CorpusRequest::key() const {
  std::string key = std::string("corpus|") + setup_name(setup_) +
                    "|shape=" + shape_ + "|base=" + std::to_string(base_seed_) +
                    "|n=" + std::to_string(count_);
  key_sizes(key, sizes_);
  key_options(key, options_);
  return key;
}

Result<WcetBenchRequest> WcetBenchRequest::make(uint32_t repeat) {
  if (auto err = check_repeat(repeat)) return *err;
  WcetBenchRequest req;
  req.repeat_ = repeat;
  return req;
}

std::string WcetBenchRequest::key() const {
  return "wcetbench|r=" + std::to_string(repeat_);
}

Result<SimBenchRequest> SimBenchRequest::make(uint32_t repeat) {
  if (auto err = check_repeat(repeat)) return *err;
  SimBenchRequest req;
  req.repeat_ = repeat;
  return req;
}

std::string SimBenchRequest::key() const {
  return "simbench|r=" + std::to_string(repeat_);
}

} // namespace spmwcet::api
