/**
 * @file
 * EINTR-safe filesystem primitives for durable persistence.
 *
 * Every byte the synthesis store promises to keep goes through these
 * helpers: plain write()/fsync()/rename() can be interrupted by
 * signals (EINTR) or fail transiently under memory pressure, and a persistence layer that treats those as permanent
 * failures turns a survivable hiccup into data loss. Each helper
 * retries the interrupted call with a bounded exponential backoff and
 * gives up — returning the ordinary failure path — only after the
 * budget is exhausted.
 *
 * None of these throw: persistence failures are ordinary outcomes the
 * callers (SynthesisStore::append, the store's meta publish) must
 * tolerate (docs/robustness.md).
 */
#ifndef HYDRIDE_SUPPORT_FSIO_H
#define HYDRIDE_SUPPORT_FSIO_H

#include <cstddef>
#include <string>

namespace hydride {
namespace fsio {

/** Retry attempts for interrupted/transient syscalls. The backoff
 *  doubles from 1ms, so the worst case waits ~`(2^attempts)-1` ms. */
constexpr int kRetryAttempts = 6;

/**
 * open(2) with an EINTR retry loop. Returns the file descriptor or
 * -1 (errno preserved from the final attempt).
 */
int openRetry(const char *path, int flags, int mode = 0644);

/**
 * Write the whole buffer, resuming after EINTR and short writes.
 * ENOSPC and other hard errors fail immediately. False on failure
 * (the file may hold a prefix of the buffer — callers that need
 * atomicity must write to a temp file and renameRetry over).
 */
bool writeFull(int fd, const void *data, size_t len);

/**
 * fsync(2) with EINTR retry and bounded backoff. False when the
 * kernel definitively refused to make the data durable.
 */
bool fsyncRetry(int fd);

/**
 * rename(2) with retry + bounded backoff on EINTR and transient
 * failures (EBUSY). Atomic within one filesystem, same as rename.
 */
bool renameRetry(const std::string &from, const std::string &to);

/**
 * fsync the *directory* so a just-renamed/created entry survives a
 * power cut. Best effort: false only when the directory cannot even
 * be opened.
 */
bool fsyncDir(const std::string &dir);

/**
 * Durable atomic publish: write `content` to `path + ".tmp.<pid>"`,
 * fsyncRetry, renameRetry over `path`, fsync the parent directory.
 * The previous file at `path` survives any mid-way failure.
 */
bool writeFileAtomic(const std::string &path, const std::string &content);

} // namespace fsio
} // namespace hydride

#endif // HYDRIDE_SUPPORT_FSIO_H
