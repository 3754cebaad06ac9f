// Swift-style dataflow values.
//
// Swift (paper §4.1) is a dataflow language: every statement runs as soon
// as — and only when — its input data become available. Variables are
// single-assignment futures mapped to files. This header provides that
// future type; swift/engine.hh provides the statement semantics.
//
// The REM script of Fig 17 is expressed directly over these: `c[current]`,
// `v[current]`, `x[neighbor]`... each is a DataVar; namd() closes its
// output vars when the task completes, which releases the next segment.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace jets::swift {

class SwiftEngine;

namespace detail {
struct Statement;
}  // namespace detail

/// Single-assignment, file-mapped dataflow variable. A statement waiting
/// for it is not a coroutine but its engine's record, parked in this
/// variable's intrusive FIFO (DESIGN.md §16); set() queues one activation
/// per parked statement, oldest first.
class DataVar {
 public:
  explicit DataVar(std::string path, std::uint64_t bytes = 0)
      : path_(std::move(path)), bytes_(bytes) {}
  DataVar(const DataVar&) = delete;
  DataVar& operator=(const DataVar&) = delete;

  const std::string& path() const { return path_; }
  std::uint64_t bytes() const { return bytes_; }
  bool is_set() const { return set_; }

  /// Closes the variable (the mapped file now exists) and wakes the
  /// statements parked on it. A second set() is an error in Swift: single
  /// assignment is enforced (std::logic_error). Defined in swift/engine.cc.
  void set();

 private:
  friend class SwiftEngine;
  void park(detail::Statement& st);
  void unpark(detail::Statement& st);

  bool set_ = false;
  detail::Statement* head_ = nullptr;  // parked statements, oldest first
  detail::Statement* tail_ = nullptr;
  std::string path_;
  std::uint64_t bytes_;
};

using DataPtr = std::shared_ptr<DataVar>;

inline DataPtr make_data(std::string path, std::uint64_t bytes = 0) {
  return std::make_shared<DataVar>(std::move(path), bytes);
}

}  // namespace jets::swift
