# Runs `BENCH_BIN [BENCH_ARGS] --json OUT` (stdout suppressed — the console
# report is for humans, the JSON document is the artifact), then, when
# GOLDEN_CHECK is set, compares OUT against the committed GOLDEN baseline.
# BENCH_ARGS is the campaign id for wild5g_run and empty for bench_micro.
#
# Invoked two ways from bench.cmake:
#   - `ctest -R golden.<name>`: BENCH_BIN + BENCH_ARGS + OUT + GOLDEN +
#     GOLDEN_CHECK
#   - `cmake --build build --target regen-goldens`: BENCH_BIN + BENCH_ARGS +
#     OUT only, with OUT pointing into the source tree's bench/golden/.
get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")

execute_process(
  COMMAND "${BENCH_BIN}" ${BENCH_ARGS} --json "${OUT}"
  RESULT_VARIABLE bench_rc
  OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "bench '${BENCH_BIN}' failed (exit ${bench_rc})")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "bench '${BENCH_BIN}' did not write '${OUT}'")
endif()

if(DEFINED GOLDEN_CHECK)
  if(NOT EXISTS "${GOLDEN}")
    message(FATAL_ERROR
      "no golden baseline at '${GOLDEN}' — generate it with"
      " `cmake --build build --target regen-goldens` and commit it")
  endif()
  execute_process(
    COMMAND "${GOLDEN_CHECK}" "${GOLDEN}" "${OUT}"
    RESULT_VARIABLE check_rc)
  if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR "golden drift detected (see report above)")
  endif()
endif()
