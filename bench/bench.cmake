# bench/ builds two executables into build/bench/: wild5g_run, which runs
# any registered engine campaign (every paper figure and table is one, see
# src/engine/figures/), and bench_micro, the google-benchmark kernels.
#
# Every figure is also a golden-metrics regression gate: bench/golden/ holds
# the committed baselines generated at the default seed, one per document
# id, and `ctest -R golden.` runs each `wild5g_run <id> --json` ->
# tools/golden_check cycle. The ctest entries come from the golden files, so
# a figure without a golden has no gate (tests/ checks that the registry and
# the goldens name the same figures). `cmake --build build --target
# regen-goldens` rewrites the baselines after an intentional change.
set(WILD5G_GOLDEN_DIR ${CMAKE_SOURCE_DIR}/bench/golden)
set(WILD5G_GOLDEN_SCRATCH ${CMAKE_BINARY_DIR}/bench-golden-out)

function(wild5g_bench_executable name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ARGN} wild5g_engine)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

wild5g_bench_executable(wild5g_run)
wild5g_bench_executable(bench_micro benchmark::benchmark)

add_custom_target(regen-goldens
  COMMENT "Regenerated golden baselines in bench/golden/")

file(GLOB wild5g_goldens CONFIGURE_DEPENDS ${WILD5G_GOLDEN_DIR}/bench_*.json)
foreach(golden ${wild5g_goldens})
  get_filename_component(name ${golden} NAME_WE)
  string(REGEX REPLACE "^bench_" "" id ${name})
  if(id STREQUAL "micro")
    set(bench_target bench_micro)
    set(bench_args "")
  else()
    set(bench_target wild5g_run)
    set(bench_args ${id})
  endif()

  if(BUILD_TESTING)
    add_test(NAME golden.${name}
      COMMAND ${CMAKE_COMMAND}
        -DBENCH_BIN=$<TARGET_FILE:${bench_target}>
        -DBENCH_ARGS=${bench_args}
        -DOUT=${WILD5G_GOLDEN_SCRATCH}/${name}.json
        -DGOLDEN=${golden}
        -DGOLDEN_CHECK=$<TARGET_FILE:golden_check>
        -P ${CMAKE_SOURCE_DIR}/bench/golden_run.cmake)
  endif()

  add_custom_target(regen-golden-${name}
    COMMAND ${CMAKE_COMMAND}
      -DBENCH_BIN=$<TARGET_FILE:${bench_target}>
      -DBENCH_ARGS=${bench_args}
      -DOUT=${golden}
      -P ${CMAKE_SOURCE_DIR}/bench/golden_run.cmake
    DEPENDS ${bench_target}
    COMMENT "Regenerating golden baseline ${name}")
  add_dependencies(regen-goldens regen-golden-${name})
endforeach()
