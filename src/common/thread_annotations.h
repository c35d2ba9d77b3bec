#ifndef NEURSC_COMMON_THREAD_ANNOTATIONS_H_
#define NEURSC_COMMON_THREAD_ANNOTATIONS_H_

// Clang Thread Safety Analysis annotations (docs/static_analysis.md).
//
// These macros expand to Clang's __attribute__((capability(...))) family
// when the compiler supports it and to nothing everywhere else, so GCC
// builds are unaffected. Annotate every mutex-guarded field with
// NEURSC_GUARDED_BY and every lock-requiring private method with
// NEURSC_REQUIRES; the analyzer then proves the locking discipline that
// docs/threading.md states in prose — at compile time, for all schedules,
// instead of only on the interleavings TSan happens to sample.
//
// Build with the analysis as an error gate via
//   cmake -DNEURSC_ANALYZE=ON -DCMAKE_CXX_COMPILER=clang++
// (adds -Wthread-safety -Werror=thread-safety; ci.sh stage 5 runs it
// whenever clang is installed).
//
// Exemption policy: NEURSC_NO_THREAD_SAFETY_ANALYSIS is allowed only with
// a one-line rationale comment at the use site explaining why the
// analysis cannot see the invariant. Blanket suppressions are not.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define NEURSC_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#if !defined(NEURSC_THREAD_ANNOTATION_)
#define NEURSC_THREAD_ANNOTATION_(x)
#endif

/// Marks a class as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define NEURSC_CAPABILITY(x) NEURSC_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases
/// a capability (e.g. MutexLock).
#define NEURSC_SCOPED_CAPABILITY NEURSC_THREAD_ANNOTATION_(scoped_lockable)

/// Field/variable may only be accessed while holding the given capability.
#define NEURSC_GUARDED_BY(x) NEURSC_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer itself is free to read, but the pointed-to data needs the lock.
#define NEURSC_PT_GUARDED_BY(x) NEURSC_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function may only be called while holding the listed capabilities.
#define NEURSC_REQUIRES(...) \
  NEURSC_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (held on return).
#define NEURSC_ACQUIRE(...) \
  NEURSC_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (must be held on entry).
#define NEURSC_RELEASE(...) \
  NEURSC_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns the given value.
#define NEURSC_TRY_ACQUIRE(...) \
  NEURSC_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock prevention for
/// functions that acquire them internally).
#define NEURSC_EXCLUDES(...) \
  NEURSC_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Declares that this capability must be acquired before the listed ones
/// (lock-hierarchy enforcement; see the table in docs/threading.md).
#define NEURSC_ACQUIRED_BEFORE(...) \
  NEURSC_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define NEURSC_ACQUIRED_AFTER(...) \
  NEURSC_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define NEURSC_RETURN_CAPABILITY(x) \
  NEURSC_THREAD_ANNOTATION_(lock_returned(x))

/// Tells the analyzer the capability is held without acquiring it
/// (runtime-checked assertions).
#define NEURSC_ASSERT_CAPABILITY(x) \
  NEURSC_THREAD_ANNOTATION_(assert_capability(x))

/// Opts a function out of the analysis. Every use site must carry a
/// one-line rationale comment (see exemption policy above).
#define NEURSC_NO_THREAD_SAFETY_ANALYSIS \
  NEURSC_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // NEURSC_COMMON_THREAD_ANNOTATIONS_H_
