# Smoke test for wild5g_study (ctest `examples.wild5g_study`): at the
# default seed it must write the eight CSVs with their headers and sizes,
# and a seed that is not entirely an unsigned integer must be a usage error
# (exit 2) that writes nothing.
#
#   cmake -DSTUDY_BIN=<wild5g_study> -DOUT_DIR=<scratch dir> -P study_smoke.cmake
file(REMOVE_RECURSE "${OUT_DIR}")

foreach(seed abc 12x)
  execute_process(COMMAND "${STUDY_BIN}" "${OUT_DIR}" ${seed}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "seed '${seed}': expected exit 2, got '${rc}'")
  endif()
  if(EXISTS "${OUT_DIR}")
    message(FATAL_ERROR "seed '${seed}': the rejected run wrote '${OUT_DIR}'")
  endif()
endforeach()

execute_process(COMMAND "${STUDY_BIN}" "${OUT_DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE stdout)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "default run failed (exit ${rc})")
endif()

# <file>|<size the tool reports>|<header line>
set(expected
  "speedtest_verizon.csv|180 rows|server,distance_km,network,mode,rtt_ms,downlink_mbps,uplink_mbps"
  "speedtest_tmobile.csv|120 rows|server,distance_km,network,mode,rtt_ms,downlink_mbps,uplink_mbps"
  "handoffs.csv|20 rows|setting,drive,total,horizontal,vertical"
  "rrc_probe.csv|11319 rows|network,gap_ms,rtt_ms,true_state"
  "traces_5g.csv|121 traces|trace_id,interval_s,index,mbps"
  "traces_4g.csv|175 traces|trace_id,interval_s,index,mbps"
  "walking_campaign.csv|12000 samples|t_s,rsrp_dbm,dl_mbps,ul_mbps,power_mw"
  "web_measurements.csv|400 rows|domain,objects,page_mb,dynamic_fraction,plt_4g_s,plt_5g_s,energy_4g_j,energy_5g_j")
foreach(entry ${expected})
  string(REPLACE "|" ";" fields "${entry}")
  list(GET fields 0 name)
  list(GET fields 1 size)
  list(GET fields 2 header)
  string(FIND "${stdout}" "wrote ${OUT_DIR}/${name} (${size})" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${name}: expected 'wrote ... (${size})' in:\n${stdout}")
  endif()
  file(STRINGS "${OUT_DIR}/${name}" lines)
  list(GET lines 0 first)
  if(NOT first STREQUAL header)
    message(FATAL_ERROR "${name}: header '${first}', expected '${header}'")
  endif()
  # Row- and sample-counted files hold one line per row under the header.
  if(size MATCHES "^([0-9]+) (rows|samples)$")
    list(LENGTH lines count)
    math(EXPR rows "${count} - 1")
    if(NOT rows EQUAL CMAKE_MATCH_1)
      message(FATAL_ERROR "${name}: ${rows} rows, expected ${CMAKE_MATCH_1}")
    endif()
  endif()
endforeach()
