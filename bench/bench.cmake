# Bench binaries land in build/bench/ (executables only) so that
# `for b in build/bench/*; do $b; done` runs the whole harness.
#
# Every bench is also a golden-metrics regression gate: it emits its
# figure/table data as JSON (`--json <path>`), bench/golden/ holds the
# committed baselines generated at kBenchSeed, and `ctest -R golden.` runs
# each bench -> tools/golden_check cycle. `cmake --build build --target
# regen-goldens` rewrites the baselines after an intentional change.
set(WILD5G_GOLDEN_DIR ${CMAKE_SOURCE_DIR}/bench/golden)
set(WILD5G_GOLDEN_SCRATCH ${CMAKE_BINARY_DIR}/bench-golden-out)

add_custom_target(regen-goldens
  COMMENT "Regenerated golden baselines in bench/golden/")

function(wild5g_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  # tests/ reads the full list back for the every-bench thread-count gate.
  set_property(GLOBAL APPEND PROPERTY WILD5G_BENCH_TARGETS ${name})
  # wild5g_faults backs the --faults flag every bench accepts, and
  # wild5g_engine the supervision layer (signals, --deadline-ms) every bench
  # inherits through bench_common.h's MetricsEmitter.
  target_link_libraries(${name} PRIVATE ${ARGN} wild5g_faults wild5g_engine)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

  if(BUILD_TESTING)
    add_test(NAME golden.${name}
      COMMAND ${CMAKE_COMMAND}
        -DBENCH_BIN=$<TARGET_FILE:${name}>
        -DOUT=${WILD5G_GOLDEN_SCRATCH}/${name}.json
        -DGOLDEN=${WILD5G_GOLDEN_DIR}/${name}.json
        -DGOLDEN_CHECK=$<TARGET_FILE:golden_check>
        -P ${CMAKE_SOURCE_DIR}/bench/golden_run.cmake)
  endif()

  add_custom_target(regen-golden-${name}
    COMMAND ${CMAKE_COMMAND}
      -DBENCH_BIN=$<TARGET_FILE:${name}>
      -DOUT=${WILD5G_GOLDEN_DIR}/${name}.json
      -P ${CMAKE_SOURCE_DIR}/bench/golden_run.cmake
    DEPENDS ${name}
    COMMENT "Regenerating golden baseline for ${name}")
  add_dependencies(regen-goldens regen-golden-${name})
endfunction()

wild5g_bench(bench_table1_campaign wild5g_net wild5g_rrc wild5g_power wild5g_web wild5g_traces)
wild5g_bench(bench_fig01_02_latency_distance wild5g_net)
wild5g_bench(bench_fig03_downlink_distance wild5g_net)
wild5g_bench(bench_fig04_uplink_distance wild5g_net)
wild5g_bench(bench_fig05_07_tmobile_sa_nsa wild5g_net)
wild5g_bench(bench_fig08_transport_tuning wild5g_net)
wild5g_bench(bench_fig09_handoffs wild5g_mobility)
wild5g_bench(bench_fig10_25_rrc_probe wild5g_rrc)
wild5g_bench(bench_table7_rrc_params wild5g_rrc)
wild5g_bench(bench_table2_transition_power wild5g_power)
wild5g_bench(bench_fig11_throughput_power wild5g_power)
wild5g_bench(bench_fig12_energy_efficiency wild5g_power)
wild5g_bench(bench_fig13_14_rsrp_power wild5g_power)
wild5g_bench(bench_fig15_16_power_models wild5g_power)
wild5g_bench(bench_table3_9_sw_monitor wild5g_power)
wild5g_bench(bench_table8_slopes wild5g_power)
wild5g_bench(bench_fig17_abr_qoe wild5g_abr)
wild5g_bench(bench_fig18a_predictors wild5g_abr)
wild5g_bench(bench_fig18b_chunk_length wild5g_abr)
wild5g_bench(bench_fig18c_table4_interface wild5g_abr)
wild5g_bench(bench_fig19_20_web_qoe wild5g_web)
wild5g_bench(bench_fig21_penalty_saving wild5g_web)
wild5g_bench(bench_table6_fig22_selector wild5g_web)
wild5g_bench(bench_fig23_carrier_aggregation wild5g_net)
wild5g_bench(bench_fig24_server_survey wild5g_net)
wild5g_bench(bench_fig26_27_s10_power wild5g_power)
wild5g_bench(bench_micro wild5g_abr wild5g_net wild5g_mobility wild5g_rrc benchmark::benchmark)
wild5g_bench(bench_validation_apps wild5g_abr wild5g_web)
wild5g_bench(bench_baseline_2019 wild5g_net)
wild5g_bench(bench_ablation_handoff wild5g_mobility)
wild5g_bench(bench_ablation_transport wild5g_net)
wild5g_bench(bench_ablation_abr wild5g_abr)
wild5g_bench(bench_ablation_power_model wild5g_power)
wild5g_bench(bench_extension_bbr wild5g_net)
wild5g_bench(bench_extension_pensieve_5g wild5g_abr)
wild5g_bench(bench_extension_drive_energy wild5g_mobility wild5g_rrc)
wild5g_bench(bench_extension_http2 wild5g_web)
wild5g_bench(bench_extension_metro_load wild5g_metro)
wild5g_bench(bench_extension_metro_qoe wild5g_metro)
